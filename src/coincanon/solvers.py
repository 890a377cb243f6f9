"""Greedy and minimum-size change computations.

The module-level functions operate on :class:`~coincanon.core.CoinSystem`;
the underscore-prefixed helpers work on raw denomination tuples and are the
hot paths shared by the oracle and the fast checkers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .core import (
    DEFAULT_DP_BUDGET,
    CoinSystem,
    LimitExceeded,
    Representation,
)


def _greedy_counts(denoms: tuple[int, ...], x: int) -> list[int]:
    counts = [0] * len(denoms)
    rem = x
    for i in range(len(denoms) - 1, -1, -1):
        c = denoms[i]
        if c <= rem:
            counts[i], rem = divmod(rem, c)
    return counts


def _greedy_size(denoms: tuple[int, ...], x: int) -> int:
    """Size of the greedy representation, skipping unused denominations."""
    size = 0
    hi = len(denoms)
    while x:
        hi = bisect_right(denoms, x, 0, hi)
        q, x = divmod(x, denoms[hi - 1])
        size += q
    return size


def greedy(system: CoinSystem, x: int) -> Representation:
    """Repeatedly take the largest denomination not exceeding the remainder.

    Always succeeds because the unit coin is present.
    """
    if x < 0:
        raise ValueError("amount must be non-negative")
    counts = _greedy_counts(system.denoms, x)
    return Representation(tuple(counts), x, sum(counts))


def greedy_size(system: CoinSystem, x: int) -> int:
    if x < 0:
        raise ValueError("amount must be non-negative")
    return _greedy_size(system.denoms, x)


def _check_budget(entries: int, budget: Optional[int]) -> None:
    cap = DEFAULT_DP_BUDGET if budget is None else budget
    if entries > cap:
        raise LimitExceeded(f"{entries} table entries exceed the budget of {cap}")


def _opt_sizes(denoms: tuple[int, ...], limit: int) -> list[int]:
    """Minimal representation size for every amount 0..limit."""
    sizes = list(range(limit + 1))  # unit-coin baseline
    for c in denoms[1:]:
        if c > limit:
            break
        for x in range(c, limit + 1):
            v = sizes[x - c] + 1
            if v < sizes[x]:
                sizes[x] = v
    return sizes


@dataclass(frozen=True)
class DpTable:
    """Minimal sizes for all amounts 0..limit under one coin system."""

    system: CoinSystem
    limit: int
    opt_size: tuple[int, ...]


def _sizes(denoms: tuple[int, ...], x: int, budget: Optional[int]) -> list[int]:
    """The minimal size of every amount 0..x, after checking the x + 1 table
    entries against the budget (``LimitExceeded``)."""
    if x < 0:
        raise ValueError("amount must be non-negative")
    _check_budget(x + 1, budget)
    return _opt_sizes(denoms, x)


def dp_table(system: CoinSystem, limit: int, budget: Optional[int] = None) -> DpTable:
    return DpTable(system, limit, tuple(_sizes(system.denoms, limit, budget)))


def _walk(denoms: tuple[int, ...], sizes: list[int], x: int) -> Iterator[Representation]:
    """Yield every minimum-size representation of x, each exactly once, read
    off ``sizes``, the minimal size of every amount up to x.

    Coins are taken in non-increasing index order, largest first, so each
    multiset of coins has one path. The first item takes the largest usable
    coin at every step: ``optimal()``'s answer. On a true table that first
    descent never dead-ends (had rem - c_i an optimal representation with a
    coin c_j > c_i, c_j would have been usable at rem), so a dead end before
    the first item raises ``AssertionError``. The walk keeps its own stack,
    so the number of coins is not bounded by the recursion limit.
    """
    counts = [0] * len(denoms)
    taken: list[int] = []  # the coin indices on the current path
    rem, i = x, len(denoms) - 1  # the amount left and the next coin to try
    found = False
    while True:
        if not rem:
            found = True
            yield Representation(tuple(counts), x, sizes[x])
        else:
            target = sizes[rem] - 1
            while i >= 0 and (denoms[i] > rem or sizes[rem - denoms[i]] != target):
                i -= 1
            if i >= 0:  # take coin i; the next coin may be coin i again
                counts[i] += 1
                taken.append(i)
                rem -= denoms[i]
                continue
            if not found:
                raise AssertionError("inconsistent size table")
        if not taken:
            return
        i = taken.pop()  # put the last coin back and try the next smaller one
        counts[i] -= 1
        rem += denoms[i]
        i -= 1


def optimal(system: CoinSystem, x: int, budget: Optional[int] = None) -> Representation:
    """A minimum-size representation of x.

    Deterministic: among denominations that reach the minimum, the largest is
    preferred at every step.
    """
    d = system.denoms
    return next(_walk(d, _sizes(d, x, budget), x))


@dataclass(frozen=True)
class OptimalSet:
    """All minimum-size representations of one amount (possibly truncated)."""

    representations: tuple[Representation, ...]
    truncated: bool


def optimal_all(
    system: CoinSystem,
    x: int,
    cap: int = 10_000,
    budget: Optional[int] = None,
) -> OptimalSet:
    """Every minimum-size representation of x, truncated at ``cap``, in the
    walk's order, so the first is ``optimal()``'s answer."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    d = system.denoms
    reps = tuple(islice(_walk(d, _sizes(d, x, budget), x), cap + 1))
    return OptimalSet(reps[:cap], len(reps) > cap)
