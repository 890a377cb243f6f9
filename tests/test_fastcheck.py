"""Pearson's scan and the tight-system pair-scan checks."""

import random

import pytest

from coincanon import (
    WrongArity,
    is_canonical_oracle,
    is_canonical_tight_extended,
    is_canonical_tight_verbatim,
    is_tight,
    new_coin_system,
    pearson_check,
    smallest_counterexample,
    smallest_witness_is_pair,
)


def test_pearson_examples():
    v = pearson_check(new_coin_system([1, 3, 4]))
    assert not v.canonical and v.witness.x == 6
    assert pearson_check(new_coin_system([1, 5, 10, 25])).canonical
    v = pearson_check(new_coin_system([1, 7, 10, 11]))
    assert v.witness.x == 14


def test_pearson_trivial_arities():
    assert pearson_check(new_coin_system([1])).canonical
    assert pearson_check(new_coin_system([1, 7])).canonical


def test_pearson_equals_oracle_small_exhaustive():
    # All systems with up to 5 denominations drawn from {2..24}: verdict and
    # the whole smallest witness (amount, greedy and optimal counts) must match.
    from itertools import combinations
    total = 0
    for m in (3, 4, 5):
        for rest in combinations(range(2, 25), m - 1):
            s = new_coin_system((1,) + rest)
            v = pearson_check(s)
            o = smallest_counterexample(s)
            assert v.canonical == (o is None), s
            if o is not None:
                assert v.witness == o, s
            total += 1
    assert total > 10_000


def test_pearson_random_larger():
    rng = random.Random(30)
    for _ in range(300):
        m = rng.randint(3, 9)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 800), m - 1)))
        v = pearson_check(s)
        o = smallest_counterexample(s)
        assert v.canonical == (o is None), s
        if o is not None:
            assert v.witness == o, s


def test_tight_verbatim_examples():
    s = new_coin_system([1, 2, 4, 6, 8, 9])
    assert is_tight(s)[0]
    r = is_canonical_tight_verbatim(s)
    assert not r.verdict.canonical
    assert r.verdict.witness.x == 12  # 4+8 beats 9+2+1
    assert r.verdict.witness.optimal.size == 2
    assert not r.step1_fired

    s = new_coin_system([1, 5, 10, 25, 50, 100])
    assert is_canonical_tight_verbatim(s).verdict.canonical
    assert is_canonical_oracle(s).canonical


def test_tight_verbatim_documented_divergence():
    s = new_coin_system([1, 5, 10, 25, 50, 100, 220])
    assert is_tight(s)[0]
    assert is_canonical_tight_verbatim(s).verdict.canonical  # the known gap
    o = smallest_counterexample(s)
    assert o.x == 300 and o.greedy.size == 4 and o.optimal.size == 3
    r = is_canonical_tight_extended(s)
    assert not r.verdict.canonical and r.verdict.witness.x == 300


def test_tight_extended_examples():
    r = is_canonical_tight_extended(new_coin_system([1, 2, 4, 6, 8, 9]))
    assert r.verdict.witness.x == 12
    r = is_canonical_tight_extended(new_coin_system([1, 5, 10, 25, 50, 100]))
    assert r.verdict.canonical  # 100 = 2*50: the one-point step does not apply


def test_tight_check_arity_guard():
    with pytest.raises(WrongArity):
        is_canonical_tight_verbatim(new_coin_system([1, 2, 4, 6, 8]))
    with pytest.raises(WrongArity):
        is_canonical_tight_extended(new_coin_system([1, 2, 3]))


def test_tight_check_step1():
    # Non-canonical three-coin prefix: step 1 fires before any pair is scanned.
    s = new_coin_system([1, 7, 10, 11, 21, 31])
    r = is_canonical_tight_verbatim(s)
    assert r.step1_fired and r.pairs_scanned == 0
    assert not r.verdict.canonical
    assert r.verdict.witness.x < 31 + 10


def test_pairs_scanned_bound():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(6, 10)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 300), m - 1)))
        r = is_canonical_tight_extended(s)
        limit = (s.m - 1) * s.m // 2
        assert r.pairs_scanned <= limit
        assert r.variant == "extended"
        assert is_canonical_tight_verbatim(s).variant == "verbatim"


def test_tight_check_on_huge_coins():
    # Coins up to 2**25 with 27 denominations: pair membership must not depend
    # on coin size. The off-ladder top exercises both the pair scan and the
    # one-point step.
    huge = new_coin_system([2**i for i in range(26)] + [2**25 + 2**24])
    r = is_canonical_tight_extended(huge)
    assert r.pairs_scanned > 0
    assert r.verdict.canonical
    assert is_canonical_tight_verbatim(huge).verdict.canonical


def test_no_false_non_canonical_even_when_not_tight():
    # Tightness is a precondition for Canonical answers only: every
    # NonCanonical verdict must still carry a genuine counterexample.
    rng = random.Random(32)
    for _ in range(150):
        m = rng.randint(6, 9)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 120), m - 1)))
        for checker in (is_canonical_tight_verbatim, is_canonical_tight_extended):
            r = checker(s)
            if not r.verdict.canonical:
                assert not is_canonical_oracle(s).canonical, s


def test_extended_equals_oracle_on_tight_systems():
    rng = random.Random(33)
    checked = 0
    while checked < 60:
        m = rng.randint(6, 8)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 150), m - 1)))
        if not is_tight(s)[0]:
            continue
        checked += 1
        r = is_canonical_tight_extended(s)
        assert r.verdict.canonical == is_canonical_oracle(s).canonical, s


def test_smallest_witness_is_pair_examples():
    s = new_coin_system([1, 2, 4, 6, 8, 9])
    assert smallest_witness_is_pair(s, smallest_counterexample(s))
    s = new_coin_system([1, 7, 10, 11])
    assert smallest_witness_is_pair(s, smallest_counterexample(s))  # 14 = 7+7
    s = new_coin_system([1, 5, 10, 25, 50, 100, 220])
    assert not smallest_witness_is_pair(s, smallest_counterexample(s))  # 300
