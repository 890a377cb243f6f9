"""Sweep machinery: evaluating predicates over one shared scan record must
match the standalone predicates, and equivalence reports must catch
disagreements."""

import random

import pytest

from coincanon import Verdict, new_coin_system
from coincanon.generate import enumerate_all
from coincanon.predicates import PREDICATES
from coincanon.sweeps import (
    EquivalenceReport,
    compare_with_oracle,
    evaluate_predicates,
    pearson_equivalence_sweep,
    predicate_sweep,
)


def _standalone(s):
    """Every predicate on a fresh scan record of its own."""
    return {name: fn(s) for name, fn in PREDICATES.items()}


def test_shared_matches_standalone_on_random_corpus():
    rng = random.Random(50)
    for _ in range(400):
        m = rng.randint(1, 9)
        cmax = rng.choice([10, 25, 60, 150])
        if cmax < m:
            continue
        s = new_coin_system([1] + sorted(rng.sample(range(2, cmax + 1), m - 1)))
        assert evaluate_predicates(s) == _standalone(s), s


def test_shared_matches_standalone_on_special_systems():
    specials = [
        [1, 7, 10, 11],
        [1, 7, 10, 50],
        [1, 5, 10, 25],
        [1, 2, 5, 6, 8],
        [1, 2, 5, 6, 10],
        [1, 2, 4, 6, 8, 9],
        [1, 5, 10, 25, 50, 100, 220],
        [1, 2, 4, 5, 7, 8, 11],
        list(range(1, 13)) + list(range(14, 22)) + [24, 25, 26, 28, 29, 30, 39],
    ]
    for coins in specials:
        s = new_coin_system(coins)
        assert evaluate_predicates(s) == _standalone(s), s


def test_predicate_sweep_counts():
    report = predicate_sweep(enumerate_all(3, 20))
    assert report.total == 171  # C(19, 2)
    assert report.clean
    # every three-coin system resolves thm1/thm3 one way or the other
    assert report.holds.get("thm1", 0) + report.not_applicable.get("thm1", 0) == 171
    assert report.holds.get("thm1", 0) > 0
    assert report.fails == {}


def test_predicate_sweep_aggregate_counts():
    report = predicate_sweep(enumerate_all(4, 14))
    assert report.total == 286  # C(13, 3)
    assert report.holds == {"thm1": 231, "thm3": 231, "thm8": 136}
    assert report.fails == {}
    assert report.not_applicable == {
        "thm1": 55, "thm3": 55, "thm8": 150, "thm11": 286, "lem12": 286, "lem13": 286,
    }
    _assert_six_coin_aggregates(predicate_sweep(enumerate_all(6, 26)))


def _assert_six_coin_aggregates(report):
    assert report.total == 53_130  # C(25, 5)
    assert report.holds == {"thm1": 52_563, "thm3": 52_563, "thm8": 26_738, "thm11": 10_756}
    assert report.fails == {}
    assert report.not_applicable == {
        "thm1": 567, "thm3": 567, "thm8": 26_392,
        "thm11": 42_374, "lem12": 53_130, "lem13": 53_130,
    }


def test_sweeps_do_not_depend_on_the_order_of_the_corpus():
    # The sweeps' prefix caches reuse the previous system's scan; shuffled,
    # consecutive systems rarely share one, and the counts stay the same.
    systems = list(enumerate_all(6, 26))
    random.Random(26).shuffle(systems)
    _assert_six_coin_aggregates(predicate_sweep(systems))
    report = pearson_equivalence_sweep(systems)
    assert report.agree, report.mismatches
    assert (report.total, report.canonical, report.non_canonical) == (53_130, 567, 52_563)


def test_compare_with_oracle_agreement():
    from coincanon import check_four
    report = compare_with_oracle("four", check_four, enumerate_all(4, 16))
    assert report.total == 455  # C(15, 3)
    assert report.agree
    assert report.canonical + report.non_canonical == report.total
    assert report.non_canonical > 0


def test_compare_with_oracle_catches_lies():
    always_yes = lambda s: Verdict()
    report = compare_with_oracle("liar", always_yes, enumerate_all(3, 12))
    assert not report.agree
    assert len(report.mismatches) > 0


def test_compare_with_oracle_witness_values():
    from coincanon import pearson_check
    report = compare_with_oracle(
        "pearson", pearson_check, enumerate_all(4, 16), compare_witness_value=True
    )
    assert report.agree


def test_exact_mode_flags_a_witness_that_is_not_the_smallest():
    # check_four's one-point witness is a counterexample but not always the
    # smallest one: on 1,3,5,6 the oracle finds 8 and check_four gives 10.
    from coincanon import check_four
    report = compare_with_oracle(
        "four", check_four, enumerate_all(4, 16), compare_witness_value=True
    )
    assert not report.agree
    assert (new_coin_system([1, 3, 5, 6]), "oracle 8, four 10") in report.mismatches


def test_pearson_equivalence_sweep_counts_match_compare_with_oracle():
    from coincanon import pearson_check
    want = compare_with_oracle(
        "pearson", pearson_check, enumerate_all(5, 20), compare_witness_value=True
    )
    assert want.agree and want.total == 3_876  # C(19, 4)
    for report in (
        pearson_equivalence_sweep(enumerate_all(5, 20)),
        pearson_equivalence_sweep(enumerate_all(5, 20), full_check_stride=1),
    ):
        assert report.agree, report.mismatches
        assert (report.total, report.canonical, report.non_canonical) == (
            want.total, want.canonical, want.non_canonical
        )
    for stride in (0, -1):
        with pytest.raises(ValueError, match="full_check_stride must be at least 1"):
            pearson_equivalence_sweep(enumerate_all(5, 20), full_check_stride=stride)


def test_pearson_equivalence_sweep_catches_a_wrong_scan_or_wrapper(monkeypatch):
    import coincanon.characterize
    import coincanon.fastcheck
    # Break the candidate loop that the sweep's shared rows and pearson_check
    # both run: no candidate fires. Stride 10**6 exceeds the corpus, so only
    # the shared rows answer; with stride 1 only the wrapper does.
    monkeypatch.setattr(coincanon.characterize, "_greedy_size", lambda denoms, x: 0)
    for stride in (10**6, 1):
        report = pearson_equivalence_sweep(enumerate_all(5, 20), full_check_stride=stride)
        assert not report.agree
        assert report.non_canonical > 0
    monkeypatch.undo()
    # With stride 1 every system goes through the wrapper instead of the scan.
    monkeypatch.setattr(coincanon.fastcheck, "pearson_check", lambda system: Verdict())
    assert not pearson_equivalence_sweep(enumerate_all(5, 20), full_check_stride=1).agree
