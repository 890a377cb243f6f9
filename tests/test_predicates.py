"""Three-valued structural predicates."""

import random
from itertools import chain

import pytest
from _brute import smallest_counterexample_bruteforce

from coincanon import (
    LimitExceeded,
    Outcome,
    disjoint_support,
    disjoint_support_universal,
    final_gap_is_max,
    new_coin_system,
    pair_witness,
    propagation_bound,
    smallest_is_pair_sum,
    window_bound,
)
from coincanon.generate import enumerate_all
from coincanon.predicates import PREDICATES


def test_registry_names():
    assert set(PREDICATES) == {"thm1", "thm3", "thm8", "thm11", "lem12", "lem13"}


def test_disjoint_support_examples():
    assert disjoint_support(new_coin_system([1, 7, 10, 11])).outcome is Outcome.HOLDS
    r = disjoint_support(new_coin_system([1, 5, 10, 25]))
    assert r.outcome is Outcome.NOT_APPLICABLE  # canonical: vacuous
    assert disjoint_support(new_coin_system([1, 3, 4])).outcome is Outcome.HOLDS


def test_disjoint_support_universal_never_fails():
    # The universal form is a theorem (see ``disjoint_support``), checked by
    # the same code as the existential form.
    assert disjoint_support_universal is disjoint_support
    rng = random.Random(40)
    outcomes = set()
    for _ in range(200):
        m = rng.randint(3, 5)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 50), m - 1)))
        outcomes.add(disjoint_support_universal(s).outcome)
    assert Outcome.FAILS not in outcomes
    assert Outcome.HOLDS in outcomes


def test_window_bound_examples():
    assert window_bound(new_coin_system([1, 7, 10, 11])).outcome is Outcome.HOLDS
    assert window_bound(new_coin_system([1, 5, 10])).outcome is Outcome.NOT_APPLICABLE
    assert window_bound(new_coin_system([1, 3, 4])).outcome is Outcome.HOLDS
    assert window_bound(new_coin_system([1, 2])).outcome is Outcome.NOT_APPLICABLE


def test_window_bound_is_strict():
    # 6 sits strictly inside (5, 7) for <1,3,4>; the detail names the window.
    r = window_bound(new_coin_system([1, 3, 4]))
    assert "window (5, 7)" in r.detail


def test_window_bound_scan_matches_brute_force():
    # The from-1 scan every predicate reads, against an enumerator that
    # shares no code with it, over the same range up to twice the top coin.
    for s in chain.from_iterable(enumerate_all(m, 12) for m in (3, 4, 5)):
        x = smallest_counterexample_bruteforce(s.denoms, 2 * s.largest)
        r = window_bound(s)
        if x is None:
            assert (r.outcome, r.detail) == (Outcome.NOT_APPLICABLE, "canonical"), s
        else:
            assert r.detail.startswith(f"smallest counterexample {x}, "), (s, r.detail)


def test_propagation_bound_examples():
    assert propagation_bound(new_coin_system([1, 7, 10, 50])).outcome is Outcome.HOLDS
    assert propagation_bound(new_coin_system([1, 3, 4, 20])).outcome is Outcome.HOLDS
    r = propagation_bound(new_coin_system([1, 5, 10, 25]))
    assert r.outcome is Outcome.NOT_APPLICABLE
    assert "canonical" in r.detail
    assert propagation_bound(new_coin_system([1, 3, 4])).outcome is Outcome.NOT_APPLICABLE


def test_pair_witness_examples():
    # <1,2,5,6,8>: canonical three-coin prefix, non-canonical tight prefix
    # <1,2,5,6>, non-canonical tight full system: hypotheses met and a pair
    # counterexample exists.
    r = pair_witness(new_coin_system([1, 2, 5, 6, 8]))
    assert r.outcome is Outcome.HOLDS
    # canonical full system: not applicable
    r = pair_witness(new_coin_system([1, 2, 5, 6, 10]))
    assert r.outcome is Outcome.NOT_APPLICABLE
    # the divergence instance: its 6-coin prefix is canonical
    r = pair_witness(new_coin_system([1, 5, 10, 25, 50, 100, 220]))
    assert r.outcome is Outcome.NOT_APPLICABLE
    assert "prefix without the top coin is canonical" in r.detail


def test_final_gap_examples():
    # Hypothesis gate: the 4+8 = 12 pair counterexample logic is subsumed by
    # an earlier gate here (the 5-coin prefix is canonical); outcome is N/A.
    r = final_gap_is_max(new_coin_system([1, 2, 4, 6, 8, 9]))
    assert r.outcome is Outcome.NOT_APPLICABLE
    # A system meeting all hypotheses: the top gap must be the maximum gap.
    r = final_gap_is_max(new_coin_system([1, 2, 4, 5, 7, 8, 11]))
    assert r.outcome is Outcome.HOLDS


def test_smallest_is_pair_sum_on_hard_instance():
    # The near-arithmetic tight system that defeats the 2m-step shortcut:
    # all hypotheses hold and the smallest counterexample is a pair sum.
    coins = list(range(1, 13)) + list(range(14, 22)) + [24, 25, 26, 28, 29, 30, 39]
    r = smallest_is_pair_sum(new_coin_system(coins))
    assert r.outcome is Outcome.HOLDS
    r12 = final_gap_is_max(new_coin_system(coins))
    assert r12.outcome is Outcome.HOLDS


def test_no_failures_on_random_corpus():
    rng = random.Random(41)
    applicable = 0
    for _ in range(400):
        m = rng.randint(1, 8)
        cmax = rng.choice([12, 30, 80, 200])
        if cmax < m:
            continue
        s = new_coin_system([1] + sorted(rng.sample(range(2, cmax + 1), m - 1)))
        for name, fn in PREDICATES.items():
            r = fn(s)
            assert r.outcome is not Outcome.FAILS, (s, name, r.detail)
            if r.outcome is Outcome.HOLDS:
                applicable += 1
    assert applicable > 200


def test_budget_guard():
    s = new_coin_system([1, 7, 10, 5000])
    with pytest.raises(LimitExceeded):
        window_bound(s, budget=100)
