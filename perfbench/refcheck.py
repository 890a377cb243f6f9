"""Reference answers for the benchmark's correctness checks.

Everything here is computed from scratch by a from-1 dynamic program and the
plain greedy rule. Nothing is imported from ``coincanon``, so a fault in the
library's solvers or oracle cannot hide itself by also being in the
reference. ``perfbench/check_refcheck.py`` checks this module against
exhaustive count-vector enumeration on tiny systems.
"""

from __future__ import annotations

from typing import Optional, Sequence

Denoms = Sequence[int]


def greedy_counts(denoms: Denoms, x: int) -> tuple[int, ...]:
    """Counts of the greedy representation of x, largest coin first."""
    counts = [0] * len(denoms)
    for i in range(len(denoms) - 1, -1, -1):
        counts[i], x = divmod(x, denoms[i])
    return tuple(counts)


def greedy_size(denoms: Denoms, x: int) -> int:
    return sum(greedy_counts(denoms, x))


def sizes(denoms: Denoms, limit: int) -> tuple[list[int], list[int]]:
    """Greedy and minimal coin counts of every amount 0..limit.

    The greedy count follows g(x) = g(x - c) + 1 with c the largest coin not
    above x; the minimal count follows o(x) = 1 + min o(x - c) over all coins
    not above x.
    """
    grd = [0] * (limit + 1)
    opt = [0] * (limit + 1)
    usable: list[int] = []
    nxt = 0
    for x in range(1, limit + 1):
        while nxt < len(denoms) and denoms[nxt] <= x:
            usable.append(denoms[nxt])
            nxt += 1
        grd[x] = grd[x - usable[-1]] + 1
        opt[x] = 1 + min(opt[x - c] for c in usable)
    return grd, opt


def window(denoms: Denoms) -> int:
    """Amounts below this bound decide canonicity.

    Kozen and Zaks: the smallest counterexample of a non-canonical system
    lies below c_{m-1} + c_m.
    """
    return denoms[-2] + denoms[-1] if len(denoms) >= 2 else 1


def smallest_counterexample(denoms: Denoms) -> Optional[int]:
    """Smallest x with a greedy count above the minimal count, or None."""
    if len(denoms) < 3:
        return None
    grd, opt = sizes(denoms, window(denoms) - 1)
    for x, (g, o) in enumerate(zip(grd, opt)):
        if g > o:
            return x
    return None


def is_tight(denoms: Denoms) -> bool:
    """No counterexample below the largest coin."""
    x = smallest_counterexample(denoms)
    return x is None or x >= denoms[-1]


def three_coin_counterexample(c2: int, c3: int) -> Optional[int]:
    """Smallest counterexample of (1, c2, c3) in closed form.

    With c3 = q*c2 + r and 0 <= r < c2, the system is non-canonical exactly
    when 0 < r < c2 - q, and then (q+1)*c2 is its smallest counterexample.
    """
    q, r = divmod(c3, c2)
    return (q + 1) * c2 if 0 < r < c2 - q else None


def one_point_amount(denoms: Denoms) -> int:
    """(k+1)*c_{m-1} with k = c_m // c_{m-1}: the amount the one-point test
    (Magazine, Nemhauser and Trotter) judges the top coin by."""
    return (denoms[-1] // denoms[-2] + 1) * denoms[-2]
