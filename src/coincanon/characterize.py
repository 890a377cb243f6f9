"""Constant-window canonicity tests for systems with up to five denominations.

These checkers decide canonicity from a handful of structural conditions
instead of a full scan, but every witness they report is a genuine
counterexample with a true optimal representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    CoinSystem,
    Counterexample,
    NotAnExtension,
    Representation,
    TheoremViolation,
    Verdict,
    WrongArity,
)
from .oracle import first_counterexample_in, smallest_counterexample
from .solvers import _greedy_size, greedy


@dataclass(frozen=True)
class ThreeCoinAnalysis:
    """Quotient/remainder analysis deciding a three-coin system.

    With ``c3 = q*c2 + r`` and ``0 <= r < c2``, the system is non-canonical
    exactly when ``0 < r < c2 - q``.
    """

    q: int
    r: int
    non_canonical: bool


def kz3_analysis(system: CoinSystem) -> ThreeCoinAnalysis:
    if system.m != 3:
        raise WrongArity(f"three-coin analysis needs exactly 3 denominations, got {system.m}")
    _, c2, c3 = system.denoms
    q, r = divmod(c3, c2)
    return ThreeCoinAnalysis(q, r, 0 < r < c2 - q)


def _kz3_non_canonical(denoms: tuple[int, ...]) -> bool:
    q, r = divmod(denoms[2], denoms[1])
    return 0 < r < denoms[1] - q


def check_three(system: CoinSystem) -> Verdict:
    """Decide a three-coin system from its quotient/remainder analysis.

    The witness of a non-canonical verdict is closed form: the smallest
    counterexample is ``x = (q+1)*c2``, and ``q+1`` copies of c2 is its only
    optimal representation (one c3 leaves ``c2 - r`` in unit coins, which
    needs more than ``q`` of them; two c3 exceed x). No table is built, so
    no budget applies.
    """
    analysis = kz3_analysis(system)
    if not analysis.non_canonical:
        return Verdict()
    k = analysis.q + 1
    x = k * system.denoms[1]
    return Verdict(Counterexample(x, greedy(system, x), Representation((0, k, 0), x, k)))


def _one_point_amount(denoms: tuple[int, ...]) -> Optional[int]:
    """The one-point test on the top coin: with ``k = c_m // c_{m-1}``, the
    amount ``(k+1)*c_{m-1}`` when its greedy representation needs more than
    ``k+1`` coins, else None. An exact multiple ``c_m`` never fires."""
    second, top = denoms[-2], denoms[-1]
    k, rem = divmod(top, second)
    if rem == 0:
        return None
    x = (k + 1) * second
    return x if _greedy_size(denoms, x) > k + 1 else None


def one_point_extension(prefix: CoinSystem, c_new: int) -> Verdict:
    """Decide the system ``prefix + (c_new,)`` assuming the prefix is canonical.

    With ``k = c_new // c_m``: exact multiples of the largest prefix coin keep
    the system canonical; otherwise the system is non-canonical exactly when
    the greedy representation of ``x = (k+1)*c_m`` uses more than ``k+1``
    coins, and x is the reported witness. The caller certifies that the
    prefix is canonical; then ``k+1`` copies of c_m is the representation
    ``optimal()`` would return, so it is built without a table.
    """
    top = prefix.denoms[-1]
    if c_new <= top:
        raise NotAnExtension(f"{c_new} does not exceed the largest denomination {top}")
    extended = CoinSystem(prefix.denoms + (c_new,))
    x = _one_point_amount(extended.denoms)
    if x is None:
        return Verdict()
    k = x // top
    counts = (0,) * (prefix.m - 1) + (k, 0)
    return Verdict(Counterexample(x, greedy(extended, x), Representation(counts, x, k)))


def propagation_witness(system: CoinSystem, budget: Optional[int] = None) -> Counterexample:
    """A counterexample below ``c_m + c3`` for a system whose three-coin
    prefix is non-canonical.

    A non-canonical three-coin prefix always propagates: the full system has
    a counterexample below that bound. Not finding one is reported loudly
    because it would falsify the propagation result.
    """
    d = system.denoms
    if len(d) < 4:
        raise WrongArity(f"propagation needs at least 4 denominations, got {len(d)}")
    if not _kz3_non_canonical(d):
        raise ValueError(f"three-coin prefix of {system} is canonical")
    bound = d[-1] + d[2]
    cex = first_counterexample_in(system, 1, bound, budget)
    if cex is None:
        raise TheoremViolation(
            f"{system}: three-coin prefix is non-canonical but no counterexample below {bound}"
        )
    return cex


def check_four(system: CoinSystem, budget: Optional[int] = None) -> Verdict:
    """Decide a four-coin system.

    Non-canonical three-coin prefixes propagate; otherwise the last coin is
    judged by the one-point extension test.
    """
    if system.m != 4:
        raise WrongArity(f"check_four needs exactly 4 denominations, got {system.m}")
    if _kz3_non_canonical(system.denoms):
        return Verdict(propagation_witness(system, budget))
    return one_point_extension(system.prefix(3), system.denoms[3])


def check_five(system: CoinSystem, budget: Optional[int] = None) -> Verdict:
    """Decide a five-coin system.

    Decision tree: a non-canonical three-coin prefix propagates; with a
    canonical three-coin prefix but non-canonical four-coin prefix, the only
    canonical completions are ``<1, 2, c3, c3+1, 2*c3>`` with ``c3 > 3``;
    with a canonical four-coin prefix the last coin is judged by the
    one-point extension test.
    Outside the family the witness is the smallest counterexample, scanned
    only up to the four-coin prefix's one-point amount y when ``y < c5``:
    below c5 the system agrees with that prefix.
    """
    if system.m != 5:
        raise WrongArity(f"check_five needs exactly 5 denominations, got {system.m}")
    d = system.denoms
    if _kz3_non_canonical(d):
        return Verdict(propagation_witness(system, budget))
    y = _one_point_amount(d[:4])
    if y is None:
        return one_point_extension(system.prefix(4), d[4])
    in_family = d[1] == 2 and d[3] == d[2] + 1 and d[4] == 2 * d[2] and d[2] > 3
    if in_family:
        return Verdict()
    if y < d[4]:
        witness = first_counterexample_in(system, 1, y + 1, budget)
    else:
        witness = smallest_counterexample(system, budget)
    if witness is None:  # pragma: no cover - would falsify the five-coin characterization
        raise TheoremViolation(
            f"{system}: five-coin characterization says non-canonical but no counterexample found"
        )
    return Verdict(witness)
