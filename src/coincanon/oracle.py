"""Ground-truth canonicity and tightness decisions.

Everything here is an exhaustive greedy-vs-dynamic-programming comparison
over a finite, provably sufficient range of amounts: the smallest
counterexample of a non-canonical system always lies strictly between
``c3 + 1`` and ``c_{m-1} + c_m`` (the classical Kozen-Zaks window), so a scan
of that window decides canonicity outright. Every fast checker in this
package is tested against this module.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    DEFAULT_DP_BUDGET,
    CoinSystem,
    Counterexample,
    LimitExceeded,
    Representation,
    Verdict,
)
from .solvers import _optimal_counts, greedy, optimal


def _guard(stop: int, budget: Optional[int]) -> None:
    cap = DEFAULT_DP_BUDGET if budget is None else budget
    if stop > cap:
        raise LimitExceeded(f"scan over {stop} amounts exceeds the budget of {cap}")


def _scan(
    denoms: tuple[int, ...],
    start: int,
    stop: int,
    budget: Optional[int],
    stop_at_hit: bool = True,
) -> tuple[Optional[int], list[int], list[int]]:
    """Compare greedy and optimal sizes for every amount in [start, stop),
    after checking ``stop`` against the budget (``LimitExceeded``).

    Returns ``(hit, greedy_sizes, opt_sizes)`` where ``hit`` is the first
    amount whose greedy size exceeds its optimal size (None if there is
    none). The size arrays cover amounts ``0..stop-1`` unless the scan
    stopped early, in which case they end at ``hit``: they grow one amount
    at a time, so an early hit never pays for the rest of the window.
    """
    _guard(stop, budget)
    if stop <= 1:
        return None, [0], [0]
    opt = [0]
    grd = [0]
    m = len(denoms)
    hit = None
    # Denominations <= x, maintained incrementally while x ascends.
    cur = 1  # largest denomination <= x
    others: tuple[int, ...] = ()  # non-unit denominations <= x
    next_i = 1
    nxt = denoms[1] if m > 1 else 0
    for x in range(1, stop):
        if x == nxt:
            cur = x
            others = denoms[1:next_i + 1]
            next_i += 1
            nxt = denoms[next_i] if next_i < m else 0
        g = grd[x - cur] + 1
        grd.append(g)
        best = opt[x - 1]
        for c in others:
            v = opt[x - c]
            if v < best:
                best = v
        best += 1
        opt.append(best)
        if g > best and x >= start and hit is None:
            hit = x
            if stop_at_hit:
                return hit, grd, opt
    return hit, grd, opt


def counterexample_at(
    system: CoinSystem, x: int, budget: Optional[int] = None
) -> Optional[Counterexample]:
    """Full counterexample record for amount x, or None if greedy is optimal there."""
    g = greedy(system, x)
    o = optimal(system, x, budget)
    if g.size <= o.size:
        return None
    return Counterexample(x, g, o)


def first_counterexample_in(
    system: CoinSystem, start: int, stop: int, budget: Optional[int] = None
) -> Optional[Counterexample]:
    """Smallest counterexample with start <= x < stop, by exhaustive scan.

    The optimal representation is backtracked from the scan's own size
    table, with the same larger-coin-first tie-break as ``optimal()``.
    """
    hit, _, opt = _scan(system.denoms, max(start, 1), stop, budget)
    if hit is None:
        return None
    counts = _optimal_counts(system.denoms, opt, hit)
    return Counterexample(hit, greedy(system, hit), Representation(tuple(counts), hit, opt[hit]))


def smallest_counterexample(
    system: CoinSystem, budget: Optional[int] = None
) -> Optional[Counterexample]:
    """Smallest counterexample of the system, or None when canonical.

    Systems with one or two denominations never have one. For larger systems
    only the window (c3 + 1, c_{m-1} + c_m), both endpoints excluded, needs
    scanning: the smallest counterexample of any non-canonical system lies
    strictly inside it.
    """
    d = system.denoms
    if len(d) < 3:
        return None
    lo = d[2] + 2
    hi = d[-2] + d[-1]
    return first_counterexample_in(system, lo, hi, budget)


def is_canonical_oracle(system: CoinSystem, budget: Optional[int] = None) -> Verdict:
    """Canonical iff no amount has a greedy representation larger than optimal."""
    return Verdict(smallest_counterexample(system, budget))


def is_tight(
    system: CoinSystem, budget: Optional[int] = None
) -> tuple[bool, Optional[Counterexample]]:
    """True iff no counterexample is smaller than the largest denomination.

    When false, also returns the smallest violating amount.
    """
    top = system.denoms[-1]
    cex = first_counterexample_in(system, 1, top, budget)
    return (cex is None, cex)
