"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion
(add ``-s`` to see the PASS lines and sweep tables). The exhaustive sweeps
in criteria 5 and 7 cover several million systems and take a few minutes
each on one core.
"""

import json
import time
from itertools import chain

from coincanon import (
    check_five,
    check_four,
    check_three,
    greedy,
    is_canonical_oracle,
    is_canonical_tight_extended,
    is_canonical_tight_verbatim,
    is_tight,
    new_coin_system,
    optimal,
    smallest_counterexample,
)
from coincanon.bench import median_elapsed, method_slope, scaling_run
from coincanon.cli import run
from coincanon.generate import (
    arithmetic_system,
    enumerate_all,
    family,
    fibonacci_system,
    geometric_system,
    near_arithmetic_corpus,
    random_system,
    tight_corpus,
)
from coincanon.sweeps import (
    PREDICATE_NAMES,
    compare_with_oracle,
    pearson_equivalence_sweep,
    predicate_sweep,
)

# Seeded corpora shared between criteria 3-7. Generated lazily and cached so
# the union sweep in criterion 7 reuses exactly the inputs of criteria 2-6.
_CACHE = {}


def _random_four_coin():
    if "r4" not in _CACHE:
        _CACHE["r4"] = [random_system(4, 10_000, seed) for seed in range(10_000)]
    return _CACHE["r4"]


def _random_five_coin():
    if "r5" not in _CACHE:
        _CACHE["r5"] = [random_system(5, 1_000, seed) for seed in range(10_000)]
    return _CACHE["r5"]


def _random_up_to_ten():
    if "r10" not in _CACHE:
        _CACHE["r10"] = [
            random_system(3 + (seed % 8), 10_000, seed) for seed in range(10_000)
        ]
    return _CACHE["r10"]


def _tight_corpus_entries():
    """Criterion 6 corpus: seeded tight systems with 6-9 denominations,
    c_max <= 500 - uniform random draws plus near-arithmetic mutations (the
    shape uniform sampling essentially never produces)."""
    if "tight" not in _CACHE:
        entries = []
        for m in (6, 7, 8, 9):
            entries.extend(tight_corpus(m, 500, seed=60 + m, target_count=500))
            entries.extend(near_arithmetic_corpus(m, 500, seed=600 + m, target_count=40))
        _CACHE["tight"] = entries
    return _CACHE["tight"]


def _supplement_entries():
    """Criterion 7 supplement: tight near-arithmetic systems with 10-13
    denominations. Exhaustive scans (all systems with 6 coins <= 60, 7 coins
    <= 34, 8 coins <= 30, 9 coins <= 28) plus millions of randomized draws
    found no system of at most 9 denominations satisfying the gap/pair-sum
    lemma hypotheses, so their non-vacuous coverage needs larger systems."""
    if "supplement" not in _CACHE:
        entries = []
        for m in (10, 11, 12, 13):
            entries.extend(near_arithmetic_corpus(m, 120, seed=1000 + m, target_count=400))
        known = [
            # the near-arithmetic instance where the pair scan needs its full
            # quadratic budget
            list(range(1, 13)) + list(range(14, 22)) + [24, 25, 26, 28, 29, 30, 39],
            # minimal known system meeting the pair-sum lemma hypotheses
            [1, 2, 4, 5, 7, 8, 10, 11, 14, 17],
        ]
        for coins in known:
            s = new_coin_system(coins)
            assert is_tight(s)[0]
            entries.append((s, is_canonical_oracle(s)))
        _CACHE["supplement"] = entries
    return _CACHE["supplement"]


def test_criterion_01_worked_examples():
    t0 = time.time()
    s1 = new_coin_system([1, 7, 10, 11])
    cex1 = smallest_counterexample(s1)
    assert cex1.x == 14
    assert cex1.greedy.counts == (3, 0, 0, 1) and cex1.greedy.size == 4
    assert cex1.optimal.counts == (0, 2, 0, 0) and cex1.optimal.size == 2
    assert is_tight(s1) == (True, None)

    s2 = new_coin_system([1, 7, 10, 50])
    cex2 = smallest_counterexample(s2)
    assert cex2.x == 14
    # With 50 on top, greedy(14) is forced to (4,0,1,0) of size 5: the
    # (3,0,0,1) vector only represents 14 under s1. Optimal matches s1.
    assert cex2.greedy.counts == (4, 0, 1, 0) and cex2.greedy.size == 5
    assert cex2.optimal.counts == (0, 2, 0, 0) and cex2.optimal.size == 2
    tight2, w2 = is_tight(s2)
    assert not tight2 and w2.x == 14

    assert is_canonical_oracle(new_coin_system([1, 5, 10, 25])).canonical
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS criterion 1: classic worked examples ({elapsed:.3f}s)")


def test_criterion_02_three_coin_exhaustive():
    t0 = time.time()
    report = compare_with_oracle(
        "check_three",
        check_three,
        enumerate_all(3, 200),
        compare_witness_value=True,  # check_three reports the smallest witness
    )
    elapsed = time.time() - t0
    assert report.total == 19_701  # C(199, 2)
    assert report.agree, report.mismatches
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE PASS criterion 2: check_three == oracle on "
        f"{report.total} systems, witness values included ({elapsed:.1f}s)"
    )


def test_criterion_03_four_coin_exhaustive_and_random():
    t0 = time.time()
    exhaustive = compare_with_oracle("check_four", check_four, enumerate_all(4, 80))
    assert exhaustive.total == 79_079  # C(79, 3)
    assert exhaustive.agree, exhaustive.mismatches

    randoms = compare_with_oracle("check_four", check_four, _random_four_coin())
    assert randoms.total == 10_000
    assert randoms.agree, randoms.mismatches
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE PASS criterion 3: check_four == oracle on "
        f"{exhaustive.total} exhaustive + {randoms.total} random systems ({elapsed:.1f}s)"
    )


def test_criterion_04_five_coin_exhaustive_random_and_family():
    t0 = time.time()
    exhaustive = compare_with_oracle("check_five", check_five, enumerate_all(5, 50))
    assert exhaustive.total == 211_876  # C(49, 4)
    assert exhaustive.agree, exhaustive.mismatches

    randoms = compare_with_oracle("check_five", check_five, _random_five_coin())
    assert randoms.total == 10_000
    assert randoms.agree, randoms.mismatches

    for c3 in range(4, 41):
        s = new_coin_system([1, 2, c3, c3 + 1, 2 * c3])
        assert check_five(s).canonical
        assert is_canonical_oracle(s).canonical
        assert not check_four(s.prefix(4)).canonical
        assert not is_canonical_oracle(s.prefix(4)).canonical
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE PASS criterion 4: check_five == oracle on "
        f"{exhaustive.total} exhaustive + {randoms.total} random systems; "
        f"family <1,2,c3,c3+1,2c3> canonical with non-canonical 4-prefix "
        f"for c3 in [4,40] ({elapsed:.1f}s)"
    )


def test_criterion_05_pearson_exhaustive_and_random():
    t0 = time.time()
    exhaustive_total = 0
    for m in (1, 2, 3, 4, 5, 6):
        report = pearson_equivalence_sweep(enumerate_all(m, 60))
        assert report.agree, (m, report.mismatches)
        exhaustive_total += report.total
    assert exhaustive_total == 5_495_792  # sum of C(59, m-1) for m in 1..6

    randoms = pearson_equivalence_sweep(_random_up_to_ten(), full_check_stride=100)
    assert randoms.total == 10_000
    assert randoms.agree, randoms.mismatches
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE PASS criterion 5: pearson == oracle (verdict and "
        f"smallest-witness value) on {exhaustive_total} exhaustive + "
        f"{randoms.total} random systems ({elapsed:.1f}s)"
    )


def test_criterion_06_tight_corpus():
    t0 = time.time()
    entries = _tight_corpus_entries()
    assert len(entries) >= 2_000
    six_to_nine = all(6 <= s.m <= 9 and s.largest <= 500 for s, _ in entries)
    assert six_to_nine

    verbatim_false_positives = 0
    precondition_subcorpus = 0
    for system, oracle_verdict in entries:
        ext = is_canonical_tight_extended(system)
        assert ext.verdict.canonical == oracle_verdict.canonical, system

        ver = is_canonical_tight_verbatim(system)
        if not ver.verdict.canonical and oracle_verdict.canonical:
            verbatim_false_positives += 1

        # sub-corpus satisfying the pair-witness preconditions: canonical
        # three-coin prefix, non-canonical prefix without the top coin
        if is_canonical_oracle(system.prefix(3)).canonical and not (
            is_canonical_oracle(system.prefix(system.m - 1)).canonical
        ):
            precondition_subcorpus += 1
            assert ver.verdict.canonical == oracle_verdict.canonical, system

    assert verbatim_false_positives == 0
    assert precondition_subcorpus > 0

    divergence = new_coin_system([1, 5, 10, 25, 50, 100, 220])
    assert is_tight(divergence)[0]
    assert is_canonical_tight_verbatim(divergence).verdict.canonical
    assert not is_canonical_tight_extended(divergence).verdict.canonical
    assert is_canonical_tight_extended(divergence).verdict.witness.x == 300
    assert not is_canonical_oracle(divergence).canonical
    assert smallest_counterexample(divergence).x == 300
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE PASS criterion 6: tight-extended == oracle on "
        f"{len(entries)} tight systems; verbatim has no false positives and "
        f"matches the oracle on the {precondition_subcorpus}-system "
        f"precondition sub-corpus; divergence instance behaves as documented "
        f"({elapsed:.1f}s)"
    )


def test_criterion_07_property_sweep_union_corpus():
    t0 = time.time()
    pieces = {
        "three-coin <=200": enumerate_all(3, 200),
        "four-coin <=80": enumerate_all(4, 80),
        "random four-coin": iter(_random_four_coin()),
        "five-coin <=50": enumerate_all(5, 50),
        "random five-coin": iter(_random_five_coin()),
        "m<=6 <=60": chain.from_iterable(enumerate_all(m, 60) for m in range(1, 7)),
        "random m<=10": iter(_random_up_to_ten()),
        "tight corpus": (s for s, _ in _tight_corpus_entries()),
        "near-arithmetic 10-13 coins": (s for s, _ in _supplement_entries()),
    }
    total = None
    for label, systems in pieces.items():
        report = predicate_sweep(systems)
        if total is None:
            total = report
        else:
            total.merge(report)
        print(f"  swept {label}: {report.total} systems")
    assert total.fails == {}, total.failures
    print(f"  {'predicate':8} {'holds':>9} {'fails':>7} {'n/a':>9}")
    for name in PREDICATE_NAMES:
        print(
            f"  {name:8} {total.holds.get(name, 0):>9} "
            f"{total.fails.get(name, 0):>7} {total.not_applicable.get(name, 0):>9}"
        )
        assert total.holds.get(name, 0) > 0, f"{name} never had its hypotheses met"

    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE PASS criterion 7: all predicates hold on 100% of the "
        f"{total.total} union-corpus systems whose hypotheses they satisfy, "
        f"with nonzero hypothesis-satisfying counts ({elapsed:.1f}s)"
    )


def test_criterion_08_named_families_canonical():
    t0 = time.time()
    checked = 0
    for m in range(1, 9):
        for step in range(1, 11):
            assert is_canonical_oracle(arithmetic_system(m, step)).canonical
            checked += 1
        for ratio in range(2, 7):
            assert is_canonical_oracle(geometric_system(m, ratio)).canonical
            checked += 1
    for m in range(1, 11):
        assert is_canonical_oracle(fibonacci_system(m)).canonical
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE PASS criterion 8: {checked} named-family instances all "
        f"canonical per oracle ({elapsed:.1f}s)"
    )


def test_criterion_09_benchmark_scaling():
    t0 = time.time()
    tight_rows = scaling_run(["tight-extended"], [512, 1024, 2048, 4096], trials=3)
    tight_slope = method_slope(tight_rows, "tight-extended")
    assert 1.6 <= tight_slope <= 2.6, tight_slope

    pearson_rows = scaling_run(["pearson"], [128, 256, 512, 1024], trials=3)
    pearson_slope = method_slope(pearson_rows, "pearson")
    assert 2.5 <= pearson_slope <= 3.5, pearson_slope

    head = scaling_run(["pearson", "tight-extended"], [2048], trials=1)
    med = median_elapsed(head)
    ratio = med[("pearson", 2048)] / med[("tight-extended", 2048)]
    assert ratio >= 10.0, ratio

    for rows in (tight_rows, pearson_rows, head):
        assert all(r.verdict == "canonical" for r in rows)
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE PASS criterion 9: tight-extended slope "
        f"{tight_slope:.2f} in [1.6, 2.6], pearson slope {pearson_slope:.2f} "
        f"in [2.5, 3.5], speedup at m=2048 = {ratio:.0f}x >= 10x ({elapsed:.1f}s)"
    )


def test_criterion_10_cli_contract(capsys):
    t0 = time.time()
    code = run(["check", "1,7,10,11"])
    out = capsys.readouterr().out
    assert code == 1
    assert "non-canonical" in out and "14" in out
    assert "(3,0,0,1) size 4" in out and "(0,2,0,0) size 2" in out

    code = run(["check", "1,5,10,25"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "canonical"

    coins = "1,5,10,25,50,100,220"
    code = run(["check", coins, "--method", "tight-verbatim"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "canonical"
    code = run(["check", coins, "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 1 and "non-canonical" in out and "300" in out

    code = run(["check", "1,7,10,11", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(payload) == {"system", "verdict", "witness", "method", "elapsed_ns"}
    w = payload["witness"]
    assert set(w) == {
        "x", "greedy_counts", "greedy_size", "optimal_counts", "optimal_size",
    }
    system = new_coin_system(payload["system"])
    g = greedy(system, w["x"])
    assert list(g.counts) == w["greedy_counts"] and g.size == w["greedy_size"]
    assert sum(k * c for k, c in zip(w["optimal_counts"], system.denoms)) == w["x"]
    assert sum(w["optimal_counts"]) == w["optimal_size"]
    assert optimal(system, w["x"]).size == w["optimal_size"]
    assert w["greedy_size"] > w["optimal_size"]
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE PASS criterion 10: CLI verdicts, exit codes, and JSON "
        f"witness re-verification ({elapsed:.1f}s)"
    )
