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
from typing import Callable, Iterable, Optional

from .core import CoinSystem, LimitExceeded, Verdict
from .oracle import _guard, _scan
from .predicates import _RULES, PREDICATES, Outcome, PredicateResult, _Scans

PREDICATE_NAMES = tuple(PREDICATES)


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


def _oracle_scan_value(denoms: tuple[int, ...], budget: Optional[int]) -> Optional[int]:
    """Smallest-counterexample value per the oracle's window scan."""
    if len(denoms) < 3:
        return None
    stop = denoms[-2] + denoms[-1]
    _guard(stop, budget)
    hit, _, _ = _scan(denoms, denoms[2] + 2, stop)
    return hit


def compare_with_oracle(
    method: str,
    checker: Callable[[CoinSystem], Verdict],
    systems: Iterable[CoinSystem],
    compare_witness_value: bool = False,
    budget: Optional[int] = None,
    max_mismatches: int = 5,
) -> EquivalenceReport:
    """Run ``checker`` and the oracle on every system and collect disagreements."""
    report = EquivalenceReport(method)
    for system in systems:
        oracle_x = _oracle_scan_value(system.denoms, budget)
        verdict = checker(system)
        report.total += 1
        if oracle_x is None:
            report.canonical += 1
        else:
            report.non_canonical += 1
        if verdict.canonical != (oracle_x is None):
            if len(report.mismatches) < max_mismatches:
                report.mismatches.append(
                    (system, f"oracle {oracle_x}, {method} says canonical={verdict.canonical}")
                )
            continue
        if compare_witness_value and oracle_x is not None and verdict.witness.x != oracle_x:
            if len(report.mismatches) < max_mismatches:
                report.mismatches.append(
                    (system, f"oracle witness {oracle_x}, {method} witness {verdict.witness.x}")
                )
    return report


def pearson_equivalence_sweep(
    systems: Iterable[CoinSystem],
    budget: Optional[int] = None,
    full_check_stride: int = 997,
    max_mismatches: int = 5,
) -> EquivalenceReport:
    """Compare the Pearson candidate scan against the oracle scan on both the
    verdict and the smallest-witness value.

    The candidate scan is what determines both; every ``full_check_stride``-th
    system additionally runs the public ``pearson_check`` wrapper and verifies
    that its materialized witness carries exactly the scan's value (the
    Counterexample constructor re-checks the size invariants).
    """
    from .fastcheck import _pearson_scan, pearson_check

    report = EquivalenceReport("pearson")
    for system in systems:
        d = system.denoms
        oracle_x = _oracle_scan_value(d, budget)
        pearson_x = _pearson_scan(d)
        report.total += 1
        if oracle_x is None:
            report.canonical += 1
        else:
            report.non_canonical += 1
        if oracle_x != pearson_x:
            if len(report.mismatches) < max_mismatches:
                report.mismatches.append(
                    (system, f"oracle {oracle_x}, pearson scan {pearson_x}")
                )
            continue
        if report.total % full_check_stride == 0:
            verdict = pearson_check(system, budget)
            witness_x = None if verdict.witness is None else verdict.witness.x
            if witness_x != pearson_x and len(report.mismatches) < max_mismatches:
                report.mismatches.append(
                    (system, f"wrapper witness {witness_x}, scan {pearson_x}")
                )
    return report


def evaluate_predicates(
    system: CoinSystem,
    names: Iterable[str] = PREDICATE_NAMES,
    budget: Optional[int] = None,
) -> dict[str, PredicateResult]:
    """Evaluate the named predicates on one system over one scan record."""
    scans = _Scans(system, budget)
    return {name: _RULES[name](scans) for name in names}


@dataclass
class SweepReport:
    """Aggregated predicate outcomes over a corpus."""

    total: int = 0
    holds: dict[str, int] = field(default_factory=dict)
    fails: dict[str, int] = field(default_factory=dict)
    not_applicable: dict[str, int] = field(default_factory=dict)
    failures: list[tuple[CoinSystem, str, str]] = field(default_factory=list)

    def merge_one(
        self, system: CoinSystem, results: dict[str, PredicateResult], max_failures: int = 20
    ) -> None:
        self.total += 1
        for name, res in results.items():
            if res.outcome is Outcome.HOLDS:
                self.holds[name] = self.holds.get(name, 0) + 1
            elif res.outcome is Outcome.FAILS:
                self.fails[name] = self.fails.get(name, 0) + 1
                if len(self.failures) < max_failures:
                    self.failures.append((system, name, res.detail))
            else:
                self.not_applicable[name] = self.not_applicable.get(name, 0) + 1

    def merge(self, other: "SweepReport", max_failures: int = 20) -> None:
        self.total += other.total
        for src, dst in (
            (other.holds, self.holds),
            (other.fails, self.fails),
            (other.not_applicable, self.not_applicable),
        ):
            for name, k in src.items():
                dst[name] = dst.get(name, 0) + k
        for item in other.failures:
            if len(self.failures) < max_failures:
                self.failures.append(item)

    @property
    def clean(self) -> bool:
        return not self.fails


def predicate_sweep(
    systems: Iterable[CoinSystem],
    names: Iterable[str] = PREDICATE_NAMES,
    budget: Optional[int] = None,
    skip_limit_errors: bool = False,
) -> SweepReport:
    """Evaluate the named predicates over a corpus and aggregate outcomes."""
    names = tuple(names)
    report = SweepReport()
    for system in systems:
        try:
            report.merge_one(system, evaluate_predicates(system, names, budget))
        except LimitExceeded:
            if not skip_limit_errors:
                raise
    return report
