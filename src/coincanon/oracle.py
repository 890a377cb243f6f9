"""Ground-truth canonicity and tightness decisions.

Everything here is an exhaustive greedy-vs-dynamic-programming comparison
over a finite, provably sufficient range of amounts: the smallest
counterexample of a non-canonical system always lies in the classical
Kozen-Zaks window (``_window``), so a scan of that window decides canonicity
outright. Every fast checker in this package is tested against this module.
The sweeps scan through ``_PrefixCache``, which reuses one system's scan for
the next system with the same leading coins.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .core import (
    DEFAULT_DP_BUDGET,
    CoinSystem,
    Counterexample,
    LimitExceeded,
    Representation,
    Verdict,
)
from .solvers import _greedy_counts, _greedy_size, _walk, greedy, optimal


def _guard(stop: int, budget: Optional[int]) -> None:
    cap = DEFAULT_DP_BUDGET if budget is None else budget
    if stop > cap:
        raise LimitExceeded(f"scan over {stop} amounts exceeds the budget of {cap}")


def _window(denoms: tuple[int, ...]) -> tuple[int, int]:
    """The half-open range ``[c3 + 2, c_{m-1} + c_m)`` of amounts that holds
    the smallest counterexample of any non-canonical system (Kozen & Zaks),
    and the empty ``(0, 0)`` below three coins, where there is none."""
    if len(denoms) < 3:
        return 0, 0
    return denoms[2] + 2, denoms[-2] + denoms[-1]


def _extend(
    denoms: tuple[int, ...],
    grd: list[int],
    opt: list[int],
    hits: list[int],
    start: int,
    stop: int,
    stop_at_hit: bool,
) -> None:
    """Append the greedy and optimal sizes of the amounts ``len(grd)`` to
    ``stop - 1`` to ``grd`` and ``opt``, and every amount among them whose
    greedy size exceeds its optimal size to ``hits``; with ``stop_at_hit``,
    end at the first such amount at or above ``start``. The lists must
    already hold the sizes of every amount below their length.

    Two shortcuts leave the sizes exact. A coin amount has greedy and
    optimal size 1. Any other amount x needs at least two coins: every
    remainder x - c (c <= x a coin) is positive, so its optimal size is at
    least 1. The first remainder of size 1 therefore ends the minimum, be it
    the unit coin's x - 1, read first, or one of the other coins', read
    largest first; on dense systems one of the first two reads reaches it.
    """
    m = len(denoms)
    x0 = len(grd)
    # Denominations <= x, maintained incrementally while x ascends from x0.
    next_i = max(bisect_right(denoms, x0 - 1), 1)
    cur = denoms[next_i - 1]  # largest denomination <= x
    others = denoms[next_i - 1:0:-1]  # non-unit denominations <= x, largest first
    nxt = denoms[next_i] if next_i < m else 0
    for x in range(x0, stop):
        if x == nxt:
            cur = x
            others = denoms[next_i:0:-1]
            next_i += 1
            nxt = denoms[next_i] if next_i < m else 0
            grd.append(1)
            opt.append(1)
            continue
        g = grd[x - cur] + 1
        grd.append(g)
        best = opt[x - 1]
        if best > 1:
            for c in others:
                v = opt[x - c]
                if v < best:
                    best = v
                    if v == 1:
                        break
        best += 1
        opt.append(best)
        if g > best:
            hits.append(x)
            if stop_at_hit and x >= start:
                return


def _first(hits: list[int], start: int, stop: int) -> Optional[int]:
    """The first of the ascending amounts ``hits`` in [start, stop), or None."""
    i = bisect_left(hits, start)
    return hits[i] if i < len(hits) and hits[i] < stop else None


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
    A one-off scan is the scan of a fresh ``_PrefixCache``.
    """
    return _PrefixCache().scan(denoms, start, stop, budget, stop_at_hit)


class _PrefixCache:
    """``_scan`` for a stream of systems, reusing the size lists of the
    system scanned before.

    Below the first coin where two systems differ, both have the same coins,
    so the greedy and optimal sizes of those amounts are the same too (Kozen
    & Zaks). The cache keeps the last system's lists, and the amounts in them
    that are counterexamples, up to that coin, and extends them only from
    there. A stored counterexample in the scanned range answers the scan with
    no extension. Results never depend on the order of the stream; systems in
    lexicographic order, as ``enumerate_all`` yields them, share the longest
    prefixes.

    ``scan`` returns the cache's own lists. They agree with ``_scan``'s on
    every amount ``_scan`` covers, may run further, and change at the next
    scan of another system.
    """

    __slots__ = ("denoms", "grd", "opt", "hits")

    def __init__(self) -> None:
        self.denoms: tuple[int, ...] = (1,)
        self.grd = [0]
        self.opt = [0]
        self.hits: list[int] = []  # every counterexample below len(grd)

    def scan(
        self,
        denoms: tuple[int, ...],
        start: int,
        stop: int,
        budget: Optional[int],
        stop_at_hit: bool,
    ) -> tuple[Optional[int], list[int], list[int]]:
        _guard(stop, budget)
        grd, opt, hits = self.grd, self.opt, self.hits
        old = self.denoms
        if denoms != old:
            k = 0
            for a, b in zip(old, denoms):
                if a != b:
                    break
                k += 1
            keep = min(old[k:k + 1] + denoms[k:k + 1])  # the first coin they differ by
            if len(grd) > keep:
                del grd[keep:], opt[keep:], hits[bisect_left(hits, keep):]
            self.denoms = denoms
        if len(grd) < stop and (not stop_at_hit or _first(hits, start, stop) is None):
            _extend(denoms, grd, opt, hits, start, stop, stop_at_hit)
        return _first(hits, start, stop), grd, opt


def counterexample_at(
    system: CoinSystem, x: int, budget: Optional[int] = None
) -> Optional[Counterexample]:
    """Full counterexample record for amount x, or None if greedy is optimal there."""
    g = greedy(system, x)
    o = optimal(system, x, budget)
    if g.size <= o.size:
        return None
    return Counterexample(x, g, o)


def _smallest_counterexample_at(system: CoinSystem, x: int) -> Counterexample:
    """Full counterexample record for x, the system's smallest counterexample,
    with ``optimal()``'s representation, built without a table.

    Every amount below x is greedy-optimal, so the optimal size of x is
    ``1 + min greedy_size(x - c)`` over the coins ``c <= x``. ``optimal()``
    takes the largest coin c reaching that minimum, and its answer is c plus
    greedy's representation of ``r = x - c``. Proof: the walk behind
    ``optimal()`` goes on from r taking, at each amount below x, the largest
    coin not above the previous one that lowers the optimal size by one.
    Greedy's coin there, the largest coin at or below the amount, lowers it,
    because the amount is greedy-optimal; so the walk takes it unless it
    exceeds the previous coin. Greedy's coins never increase, so only its
    first coin c' of r could exceed c, and it cannot: x - c' = c + (r - c')
    needs at most ``1 + opt(r - c') = opt(r) = opt(x) - 1`` coins, so c'
    would have been usable at x, and c was the largest usable coin.
    """
    d = system.denoms
    size = top = None
    for i, c in enumerate(d):
        if c > x:
            break
        s = _greedy_size(d, x - c)
        if size is None or s <= size:  # ties go to the larger coin
            size, top = s, i
    counts = _greedy_counts(d, x - d[top])
    counts[top] += 1
    return Counterexample(x, greedy(system, x), Representation(tuple(counts), x, size + 1))


def first_counterexample_in(
    system: CoinSystem, start: int, stop: int, budget: Optional[int] = None
) -> Optional[Counterexample]:
    """Smallest counterexample with start <= x < stop, by exhaustive scan.

    The optimal representation is read off the scan's own size table by
    the walk behind ``optimal()``, so it is the one ``optimal()`` gives.
    """
    hit, _, opt = _scan(system.denoms, max(start, 1), stop, budget)
    if hit is None:
        return None
    return Counterexample(hit, greedy(system, hit), next(_walk(system.denoms, opt, hit)))


def smallest_counterexample(
    system: CoinSystem, budget: Optional[int] = None
) -> Optional[Counterexample]:
    """Smallest counterexample of the system, or None when canonical, by a
    scan of the window ``_window`` (empty for one or two denominations)."""
    lo, hi = _window(system.denoms)
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
