"""Domain types shared by every canonicity checker: coin systems,
representations, counterexamples, and verdicts.

All types are immutable after construction and safe to share between
concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

U64_MAX = 2**64 - 1

# Cap on dynamic-programming table entries (one entry per amount).
DEFAULT_DP_BUDGET = 1 << 28


class InvalidSystem(ValueError):
    """A denomination list cannot form a valid coin system."""


class EmptyList(InvalidSystem):
    pass


class FirstNotOne(InvalidSystem):
    pass


class NotStrictlyIncreasing(InvalidSystem):
    pass


class NonPositiveValue(InvalidSystem):
    pass


class Overflow(InvalidSystem):
    """A value (or a pairwise sum of values) exceeds the supported 64-bit range."""


class LimitExceeded(RuntimeError):
    """A table or scan would exceed the configured entry budget."""


class WrongArity(ValueError):
    """Checker invoked on a system with an unsupported number of denominations."""


class NotAnExtension(ValueError):
    """Extension coin does not exceed the largest denomination of the prefix."""


class TheoremViolation(RuntimeError):
    """A witness that is guaranteed to exist was not found below its bound.

    This is never swallowed: it means either the implementation is wrong or
    one of the structural results the library encodes has been falsified.
    """


class BudgetExhausted(RuntimeError):
    """A generator ran out of attempts before reaching its target count."""


@dataclass(frozen=True)
class CoinSystem:
    """Strictly increasing positive denominations with the unit coin first.

    The unit coin guarantees every non-negative amount is representable.
    """

    denoms: tuple[int, ...]

    def __post_init__(self) -> None:
        d = self.denoms
        if not isinstance(d, tuple):
            object.__setattr__(self, "denoms", tuple(d))
            d = self.denoms
        if len(d) == 0:
            raise EmptyList("a coin system needs at least one denomination")
        for v in d:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"denominations must be integers, got {v!r}")
            if v < 1:
                raise NonPositiveValue(f"denomination {v} is not positive")
            if v > U64_MAX:
                raise Overflow(f"denomination {v} exceeds the 64-bit range")
        if d[0] != 1:
            raise FirstNotOne(f"smallest denomination must be 1, got {d[0]}")
        for a, b in zip(d, d[1:]):
            if a >= b:
                raise NotStrictlyIncreasing(
                    f"denominations must be strictly increasing ({a} before {b})"
                )
        # Every internal search forms pairwise sums; keep them representable.
        if d[-1] + d[-1] > U64_MAX:
            raise Overflow(f"2*{d[-1]} exceeds the 64-bit range")

    @property
    def m(self) -> int:
        """Number of denominations."""
        return len(self.denoms)

    @property
    def largest(self) -> int:
        return self.denoms[-1]

    def gaps(self) -> tuple[int, ...]:
        """Differences between consecutive denominations, starting from 0.

        The gaps are all >= 1 and sum to the largest denomination.
        """
        prev = 0
        out = []
        for c in self.denoms:
            out.append(c - prev)
            prev = c
        return tuple(out)

    def prefix(self, k: int) -> "CoinSystem":
        """The subsystem made of the first k denominations."""
        if not 1 <= k <= len(self.denoms):
            raise WrongArity(f"prefix length {k} out of range")
        return CoinSystem(self.denoms[:k])

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.denoms)


def new_coin_system(values: Iterable[int]) -> CoinSystem:
    """Validate a denomination list and build a CoinSystem."""
    return CoinSystem(tuple(values))


def gaps(system: CoinSystem) -> tuple[int, ...]:
    return system.gaps()


@dataclass(frozen=True)
class Representation:
    """Per-denomination counts for one amount, with cached value and size.

    ``counts`` is aligned index-for-index with the denominations of the coin
    system it was produced for; ``size`` is the total number of coins.
    """

    counts: tuple[int, ...]
    value: int
    size: int

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if self.size != sum(self.counts):
            raise ValueError("size does not match the sum of counts")
        if self.value < 0:
            raise ValueError("value must be non-negative")

    @classmethod
    def from_counts(cls, system: CoinSystem, counts: Iterable[int]) -> "Representation":
        """Build a representation, deriving value and size from the counts."""
        cs = tuple(counts)
        if len(cs) != system.m:
            raise ValueError(
                f"expected {system.m} counts, got {len(cs)}"
            )
        value = sum(k * c for k, c in zip(cs, system.denoms))
        return cls(cs, value, sum(cs))

    def support(self) -> tuple[int, ...]:
        """Indices of denominations actually used."""
        return tuple(i for i, k in enumerate(self.counts) if k)


@dataclass(frozen=True)
class Counterexample:
    """An amount where the greedy representation is strictly worse than optimal."""

    x: int
    greedy: Representation
    optimal: Representation

    def __post_init__(self) -> None:
        if self.greedy.value != self.x or self.optimal.value != self.x:
            raise ValueError("greedy and optimal representations must both equal x")
        if self.greedy.size <= self.optimal.size:
            raise ValueError(
                f"not a counterexample: greedy size {self.greedy.size} "
                f"<= optimal size {self.optimal.size}"
            )


@dataclass(frozen=True)
class Verdict:
    """Canonicity decision; non-canonical verdicts carry a witness."""

    witness: Optional[Counterexample] = None

    @property
    def canonical(self) -> bool:
        return self.witness is None
