"""Corpus sweep machinery: method-vs-oracle equivalence runs and predicate
sweeps over large system collections.

Sweeps are pure and deterministic, so corpora can be partitioned and the
partial reports merged; on this package's own test loads everything runs in
one process.

``evaluate_predicates`` builds one scan record per system and evaluates every
named predicate against it, so the from-1 scan, the sandwich gate and the
size arrays each run at most once per system, and each predicate is the same
code as its standalone function in :mod:`coincanon.predicates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterable, Optional

from .characterize import _PearsonRows
from .core import CoinSystem, Verdict
from .oracle import _PrefixCache, _window
from .predicates import _RULES, PREDICATES, Outcome, PredicateResult, _Scans

PREDICATE_NAMES = tuple(PREDICATES)
MAX_MISMATCHES = 5  # disagreements kept per EquivalenceReport
MAX_FAILURES = 20  # predicate failures kept per SweepReport


@dataclass
class EquivalenceReport:
    """Outcome of comparing a checker against the oracle over a corpus."""

    method: str
    total: int = 0
    canonical: int = 0
    non_canonical: int = 0
    mismatches: list[tuple[CoinSystem, str]] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.mismatches


def _amount(verdict: Verdict) -> Optional[int]:
    return None if verdict.witness is None else verdict.witness.x


def _compare(
    method: str,
    found: Callable[[CoinSystem], Optional[int]],
    systems: Iterable[CoinSystem],
    exact: bool,
) -> EquivalenceReport:
    """Run the oracle's window scan on every system and record where
    ``found`` disagrees with it. The scans share one prefix cache, so each
    reuses the size lists of the system before it.

    ``found(system)`` is the checker's witness amount, or None when the
    checker says canonical. A mismatch is a different verdict, or with
    ``exact`` a different amount.
    """
    report = EquivalenceReport(method)
    cache = _PrefixCache()
    for system in systems:
        d = system.denoms
        oracle_x = cache.scan(d, *_window(d), None, True)[0]
        x = found(system)
        report.total += 1
        if oracle_x is None:
            report.canonical += 1
        else:
            report.non_canonical += 1
        agree = x == oracle_x if exact else (x is None) == (oracle_x is None)
        if not agree and len(report.mismatches) < MAX_MISMATCHES:
            report.mismatches.append((system, f"oracle {oracle_x}, {method} {x}"))
    return report


def compare_with_oracle(
    method: str,
    checker: Callable[[CoinSystem], Verdict],
    systems: Iterable[CoinSystem],
    compare_witness_value: bool = False,
) -> EquivalenceReport:
    """Run ``checker`` and the oracle on every system and collect disagreements."""
    return _compare(method, lambda s: _amount(checker(s)), systems, compare_witness_value)


def pearson_equivalence_sweep(
    systems: Iterable[CoinSystem], full_check_stride: int = 997
) -> EquivalenceReport:
    """Compare the Pearson candidate scan against the oracle scan on both the
    verdict and the smallest-witness value.

    The scans share one ``_PearsonRows``, so each reuses the candidate rows
    of the system before it that provably answer alike; it runs the same
    candidate loop as ``_pearson_scan``, which is one scan of a fresh one.
    Every ``full_check_stride``-th system goes through the public
    ``pearson_check`` wrapper instead, whose materialized witness must carry
    the oracle's value (the Counterexample constructor re-checks the size
    invariants).
    """
    if full_check_stride < 1:
        raise ValueError("full_check_stride must be at least 1")
    from .fastcheck import pearson_check

    index = count(1)
    rows = _PearsonRows()

    def found(system: CoinSystem) -> Optional[int]:
        if next(index) % full_check_stride:
            return rows.scan(system.denoms)
        return _amount(pearson_check(system))

    return _compare("pearson", found, systems, exact=True)


def evaluate_predicates(
    system: CoinSystem,
    names: Iterable[str] = PREDICATE_NAMES,
    budget: Optional[int] = None,
) -> dict[str, PredicateResult]:
    """Evaluate the named predicates on one system over one scan record."""
    return _evaluate(_Scans(system, budget, _PrefixCache(), _PrefixCache()), names)


def _evaluate(scans: _Scans, names: Iterable[str]) -> dict[str, PredicateResult]:
    return {name: _RULES[name](scans) for name in names}


@dataclass
class SweepReport:
    """Aggregated predicate outcomes over a corpus."""

    total: int = 0
    holds: dict[str, int] = field(default_factory=dict)
    fails: dict[str, int] = field(default_factory=dict)
    not_applicable: dict[str, int] = field(default_factory=dict)
    failures: list[tuple[CoinSystem, str, str]] = field(default_factory=list)

    def merge_one(self, system: CoinSystem, results: dict[str, PredicateResult]) -> None:
        self.total += 1
        for name, res in results.items():
            if res.outcome is Outcome.HOLDS:
                self.holds[name] = self.holds.get(name, 0) + 1
            elif res.outcome is Outcome.FAILS:
                self.fails[name] = self.fails.get(name, 0) + 1
                if len(self.failures) < MAX_FAILURES:
                    self.failures.append((system, name, res.detail))
            else:
                self.not_applicable[name] = self.not_applicable.get(name, 0) + 1

    def merge(self, other: "SweepReport") -> None:
        self.total += other.total
        for src, dst in (
            (other.holds, self.holds),
            (other.fails, self.fails),
            (other.not_applicable, self.not_applicable),
        ):
            for name, k in src.items():
                dst[name] = dst.get(name, 0) + k
        self.failures.extend(other.failures[: MAX_FAILURES - len(self.failures)])

    @property
    def clean(self) -> bool:
        return not self.fails


def predicate_sweep(
    systems: Iterable[CoinSystem],
    names: Iterable[str] = PREDICATE_NAMES,
    budget: Optional[int] = None,
) -> SweepReport:
    """Evaluate the named predicates over a corpus and aggregate outcomes.

    Every system's scan record reads the same two prefix caches, so each
    scan reuses the size lists of the system before it.
    """
    names = tuple(names)
    full, prefix = _PrefixCache(), _PrefixCache()
    report = SweepReport()
    for system in systems:
        report.merge_one(system, _evaluate(_Scans(system, budget, full, prefix), names))
    return report
