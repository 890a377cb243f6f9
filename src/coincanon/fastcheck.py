"""Fast canonicity deciders: Pearson's general check and the quadratic
pair-scan check for tight systems, and ``METHODS``, the table of every
decider the CLI's ``check --method`` and ``bench --methods`` accept.

``pearson_check`` works on any system and pins down the smallest
counterexample. The tight checks trade generality for speed: they only
promise correct Canonical verdicts on tight systems (no counterexample below
the largest denomination), but any NonCanonical verdict they emit is backed
by a genuine counterexample regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

from .core import (
    CoinSystem,
    Counterexample,
    Representation,
    Verdict,
    WrongArity,
)
from .characterize import (
    _kz3_non_canonical,
    _one_point_amount,
    _pearson_scan,
    _propagated,
    check_five,
    check_four,
    check_three,
)
from .oracle import counterexample_at, first_counterexample_in, is_canonical_oracle
from .solvers import greedy


def pearson_check(system: CoinSystem, budget: Optional[int] = None) -> Verdict:
    """Decide canonicity by scanning structured candidate amounts.

    Every candidate that fires is a real counterexample, and the smallest
    counterexample of a non-canonical system always appears among the
    candidates, so the minimum firing amount is the smallest counterexample.
    Systems with fewer than three denominations have no candidate pairs and
    come out canonical, which is correct.
    """
    x = _pearson_scan(system.denoms)
    if x is None:
        return Verdict()
    witness = counterexample_at(system, x, budget)
    if witness is None:  # pragma: no cover - a firing candidate is always a counterexample
        raise AssertionError(f"candidate {x} fired but is not a counterexample")
    return Verdict(witness)


@dataclass(frozen=True)
class TightCheckReport:
    """Outcome and bookkeeping of one tight-system check."""

    verdict: Verdict
    variant: Literal["verbatim", "extended"]
    pairs_scanned: int
    step1_fired: bool


def _tight_check(
    system: CoinSystem, variant: Literal["verbatim", "extended"], budget: Optional[int]
) -> TightCheckReport:
    d = system.denoms
    n = len(d)
    if n < 6:
        raise WrongArity(f"tight check needs at least 6 denominations, got {n}")
    top = d[-1]

    if _kz3_non_canonical(d):
        # Step 1: the prefix propagates below c_m + c3. With the top coin a
        # small multiple of m, the window scan there takes about m**2 amount
        # steps, where propagation_witness's Pearson scan takes m**3 / 6.
        witness = _propagated(system, first_counterexample_in(system, 1, top + d[2], budget))
        return TightCheckReport(Verdict(witness), variant, 0, True)

    coins = set(d[:-1])

    # All pairs of the non-top denominations whose sum exceeds the top coin.
    # Such a sum is a counterexample exactly when the remainder after the top
    # coin is not itself a denomination (greedy then needs > 2 coins while
    # the pair gives 2). Sums are monotone in both indices, so the loops
    # stop as soon as they fall below the top coin.
    pairs = 0
    best = None
    for i in range(n - 2, -1, -1):
        ci = d[i]
        if ci + ci <= top:
            break
        for j in range(i, -1, -1):
            s = ci + d[j]
            pairs += 1
            if s <= top:
                break
            if (best is None or s < best) and s - top not in coins:
                best = s
    if best is not None:
        # Closed form, tight or not: best exceeds the top coin, so it is no
        # coin, and it is a sum of two coins, so two coins are optimal.
        # optimal() backtracks larger coin first: the largest coin a with
        # best - a a coin, then best - a. That a is never the top coin, since
        # best - top is no coin (which is why best was flagged).
        a = next(c for c in reversed(d[:-1]) if best - c in coins)
        counts = [0] * n
        counts[d.index(a)] += 1
        counts[d.index(best - a)] += 1
        witness = Counterexample(best, greedy(system, best), Representation(tuple(counts), best, 2))
        return TightCheckReport(Verdict(witness), variant, pairs, False)

    # A tight system's prefix need not be canonical, so the witness at the
    # one-point amount is checked rather than built in closed form.
    x = _one_point_amount(d) if variant == "extended" else None
    if x is not None:
        witness = counterexample_at(system, x, budget)
        if witness is None:  # pragma: no cover
            raise AssertionError(f"one-point amount {x} is not a counterexample")
        return TightCheckReport(Verdict(witness), variant, pairs, False)

    return TightCheckReport(Verdict(), variant, pairs, False)


def is_canonical_tight_verbatim(
    system: CoinSystem, budget: Optional[int] = None
) -> TightCheckReport:
    """The unmodified tight-system check: three-coin test, then pair scan.

    The caller certifies tightness. Known gap, kept on purpose: a tight
    non-canonical system whose every prefix is canonical can slip through
    when no pair sum exceeds the top coin (e.g. <1,5,10,25,50,100,220>);
    ``is_canonical_tight_extended`` closes it. NonCanonical verdicts are
    always genuine, tight or not.
    """
    return _tight_check(system, "verbatim", budget)


def is_canonical_tight_extended(
    system: CoinSystem, budget: Optional[int] = None
) -> TightCheckReport:
    """Pair scan plus a final one-point test on the top coin.

    When the pair scan is clean and the top coin is not an exact multiple of
    the second-largest, the greedy size of ``(k+1) * c_m`` (with
    ``k = c_{m+1} // c_m``) exposes exactly the systems the pair scan cannot
    see.
    """
    return _tight_check(system, "extended", budget)


def _auto_check(system: CoinSystem, budget: Optional[int]) -> Verdict:
    if system.m == 3:
        return check_three(system)
    if system.m == 4:
        return check_four(system, budget)
    if system.m == 5:
        return check_five(system, budget)
    return pearson_check(system, budget)


# Every decider by its ``check --method`` name, as ``(system, budget) -> Verdict``.
# ``auto`` takes the arity-specific check for three to five coins, and Pearson's
# scan otherwise (no candidate fires below three coins).
METHODS: dict[str, Callable[[CoinSystem, Optional[int]], Verdict]] = {
    "auto": _auto_check,
    "oracle": is_canonical_oracle,
    "pearson": pearson_check,
    "tight-verbatim": lambda system, budget: is_canonical_tight_verbatim(system, budget).verdict,
    "tight-extended": lambda system, budget: is_canonical_tight_extended(system, budget).verdict,
}
# The deciders that need at least six coins and promise exact verdicts only
# on tight systems.
TIGHT_METHODS = ("tight-verbatim", "tight-extended")


def _is_pair_sum(denoms: tuple[int, ...], x: int) -> bool:
    members = set(denoms)
    for c in denoms[1:]:
        if 2 * c > x:
            break
        if (x - c) in members:
            return True
    return False


def smallest_witness_is_pair(system: CoinSystem, cex: Counterexample) -> bool:
    """True iff the witness amount is a sum of two non-unit denominations.

    The caller passes the smallest counterexample of the system; this is the
    structural fact the quadratic pair scan relies on.
    """
    return _is_pair_sum(system.denoms, cex.x)
