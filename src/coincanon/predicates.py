"""Executable predicates for the structural facts the fast checkers rely on.

Each predicate evaluates its own hypotheses and reports one of three
outcomes, so corpus sweeps can distinguish "verified" from "vacuously true":

* ``HOLDS``: hypotheses satisfied and the claimed conclusion checked out.
* ``FAILS``: hypotheses satisfied but the conclusion is false. On a correct
  implementation this never happens; a failure either falsifies one of the
  encoded results or exposes a bug, and is always worth a loud report.
* ``NOT_APPLICABLE``: the hypotheses do not hold for this system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .core import CoinSystem
from .characterize import _kz3_non_canonical
from .fastcheck import _is_pair_sum
from .oracle import _scan, _window
from .solvers import _greedy_counts


class Outcome(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class PredicateResult:
    outcome: Outcome
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    @property
    def failed(self) -> bool:
        return self.outcome is Outcome.FAILS


def _na(detail: str) -> PredicateResult:
    return PredicateResult(Outcome.NOT_APPLICABLE, detail)


def _verdict(ok: bool, detail: str) -> PredicateResult:
    return PredicateResult(Outcome.HOLDS if ok else Outcome.FAILS, detail)


class _once:
    """An attribute computed at its first read and then stored on the
    instance. ``functools.cached_property`` takes a lock on every first read
    before Python 3.12, which costs ``evaluate_predicates`` about 15% on
    small systems."""

    def __init__(self, compute: Callable) -> None:
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, record: object, owner: Optional[type] = None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.compute(record)
        return value


class _Scans:
    """The scans the predicates read for one system, each run at most once."""

    def __init__(self, system: CoinSystem, budget: Optional[int]) -> None:
        self.system = system
        self.denoms = system.denoms
        self.budget = budget

    @_once
    def smallest(self) -> tuple[Optional[int], list[int]]:
        """Smallest counterexample (None when canonical) and the optimal
        sizes up to it, by an unrestricted scan from 1 to twice the top coin,
        so ``window_bound`` checks the window result instead of assuming it."""
        d = self.denoms
        hit, _, opt = _scan(d, 1, 2 * d[-1], self.budget)
        return hit, opt

    @_once
    def sandwich_unmet(self) -> Optional[str]:
        """Why the sandwich hypotheses fail, or None when they hold.

        They are: canonical three-coin prefix, non-canonical but tight prefix
        of all-but-the-last coin, non-canonical but tight full system. A
        canonical three-coin prefix is tight by definition, so no separate
        check is needed for it.
        """
        d = self.denoms
        if len(d) < 5:
            return "needs at least five denominations"
        if _kz3_non_canonical(d):
            return "three-coin prefix non-canonical"
        x, _ = self.smallest
        if x is None:
            return "full system canonical"
        if x < d[-1]:
            return "full system not tight"
        p = d[:-1]
        if _scan(p, *_window(p), self.budget)[0] is None:
            return "prefix without the top coin is canonical"
        # The prefix is tight: below c_m it sizes amounts as the tight full system does.
        return None

    @_once
    def arrays(self) -> tuple[list[int], list[int]]:
        """Greedy and optimal sizes for every amount up to ``2*c_{m-1}``,
        read by the pair-witness and gap results."""
        d = self.denoms
        _, grd, opt = _scan(d, 1, 2 * d[-2] + 1, self.budget, stop_at_hit=False)
        return grd, opt


def _has_disjoint_optimal(denoms: tuple[int, ...], x: int, sizes: list[int]) -> bool:
    """Does every minimum-size representation of x avoid the coins greedy uses?
    Some optimal one uses coin c exactly when ``sizes[x - c] == sizes[x] - 1``."""
    best = sizes[x] - 1
    return all(
        sizes[x - c] != best for c, k in zip(denoms, _greedy_counts(denoms, x)) if k
    )


def _disjoint_support(s: _Scans) -> PredicateResult:
    """At the smallest counterexample x, every optimal representation avoids
    the denominations greedy uses (so, in particular, some optimal one does).

    Proof (Kozen & Zaks; Pearson): dropping one coin c from greedy's counts g
    for x keeps every remainder sum_{i<k} g_i*c_i < c_k, so what is left is
    greedy's representation of x - c. An optimal O of x that used c would give
    opt(x - c) <= |O| - 1 < |greedy(x)| - 1 = |greedy(x - c)|, a smaller
    counterexample.
    """
    x, sizes = s.smallest
    if x is None:
        return _na("canonical")
    return _verdict(_has_disjoint_optimal(s.denoms, x, sizes), f"x={x}")


def _window_bound(s: _Scans) -> PredicateResult:
    """The smallest counterexample lies strictly between ``c3 + 1`` and
    ``c_{m-1} + c_m``, in the window the oracle scans.

    Checked against an unrestricted scan from 1 up to twice the largest
    denomination, so an off-by-one at either end of the window would show up
    as a failure rather than being masked by a window-restricted scan.
    """
    if len(s.denoms) < 3:
        return _na("needs at least three denominations")
    x, _ = s.smallest
    if x is None:
        return _na("canonical")
    lo, hi = _window(s.denoms)
    return _verdict(lo <= x < hi, f"smallest counterexample {x}, window ({lo - 1}, {hi})")


def _propagation_bound(s: _Scans) -> PredicateResult:
    """A non-canonical three-coin prefix forces a counterexample of the full
    system below ``c_m + c3``."""
    d = s.denoms
    if len(d) < 4:
        return _na("needs at least four denominations")
    if not _kz3_non_canonical(d):
        return _na("three-coin prefix canonical")
    bound = d[-1] + d[2]
    x, _ = s.smallest
    ok = x is not None and x < bound
    return _verdict(ok, f"bound {bound}" + (f", witness {x}" if ok else ""))


def _pair_cex_exists(
    d: tuple[int, ...], firsts: tuple[int, ...], grd: list[int], opt: list[int]
) -> Optional[int]:
    """Smallest counterexample of the form ``ci + cj > top`` with ci drawn
    from ``firsts`` and cj any non-unit, non-top denomination."""
    top = d[-1]
    best = None
    for ci in firsts:
        for cj in d[1:-1]:
            if cj > ci:
                break
            s = ci + cj
            if s > top and grd[s] > opt[s] and (best is None or s < best):
                best = s
    return best


def _pair_witness(s: _Scans) -> PredicateResult:
    """Under the sandwich hypotheses, some counterexample is a sum of two
    non-unit denominations below the top coin, exceeding the top coin."""
    if s.sandwich_unmet is not None:
        return _na(s.sandwich_unmet)
    d = s.denoms
    found = _pair_cex_exists(d, tuple(reversed(d[1:-1])), *s.arrays)
    return _verdict(
        found is not None,
        f"counterexample {found}" if found is not None
        else "no pair-sum counterexample above the top coin",
    )


def _final_gap_is_max(s: _Scans) -> PredicateResult:
    """Under the sandwich hypotheses, if no sum ``c_m + c_i`` above the top
    coin is a counterexample, the top gap is the largest gap."""
    if s.sandwich_unmet is not None:
        return _na(s.sandwich_unmet)
    blocked = _pair_cex_exists(s.denoms, (s.denoms[-2],), *s.arrays)
    if blocked is not None:
        return _na(f"pair sum {blocked} with the second-largest coin is a counterexample")
    gs = s.system.gaps()
    return _verdict(gs[-1] == max(gs), f"gaps {gs}")


def _smallest_is_pair_sum(s: _Scans) -> PredicateResult:
    """Under the sandwich hypotheses, if no sum involving either of the two
    largest non-top denominations exceeds the top coin as a counterexample,
    the smallest counterexample is itself a sum of two denominations."""
    if s.sandwich_unmet is not None:
        return _na(s.sandwich_unmet)
    d = s.denoms
    blocked = _pair_cex_exists(d, (d[-2], d[-3]), *s.arrays)
    if blocked is not None:
        return _na(f"pair sum {blocked} with a top-adjacent coin is a counterexample")
    x, _ = s.smallest
    assert x is not None
    return _verdict(_is_pair_sum(d, x), f"smallest counterexample {x}")


# Each rule reads one caller-held scan record, so one system's scans serve all.
_RULES: dict[str, Callable[[_Scans], PredicateResult]] = {
    "thm1": _disjoint_support,
    "thm3": _window_bound,
    "thm8": _propagation_bound,
    "thm11": _pair_witness,
    "lem12": _final_gap_is_max,
    "lem13": _smallest_is_pair_sum,
}


def _standalone(rule: Callable[[_Scans], PredicateResult]) -> Callable[..., PredicateResult]:
    """``rule`` as a predicate of one system, over a scan record of its own."""

    def predicate(system: CoinSystem, budget: Optional[int] = None) -> PredicateResult:
        return rule(_Scans(system, budget))

    predicate.__name__ = predicate.__qualname__ = rule.__name__.lstrip("_")
    predicate.__doc__ = rule.__doc__
    return predicate


PREDICATES = {name: _standalone(rule) for name, rule in _RULES.items()}
disjoint_support = PREDICATES["thm1"]
# The universal form is the theorem checked above; one implementation serves both.
disjoint_support_universal = disjoint_support
window_bound = PREDICATES["thm3"]
propagation_bound = PREDICATES["thm8"]
pair_witness = PREDICATES["thm11"]
final_gap_is_max = PREDICATES["lem12"]
smallest_is_pair_sum = PREDICATES["lem13"]
