"""Domain type construction, validation, and invariants."""

import random

import pytest

from coincanon import (
    CoinSystem,
    Counterexample,
    EmptyList,
    FirstNotOne,
    NonPositiveValue,
    NotStrictlyIncreasing,
    Overflow,
    Representation,
    Verdict,
    gaps,
    new_coin_system,
)


def test_valid_systems():
    s = new_coin_system([1, 5, 10, 25])
    assert s.m == 4
    assert s.denoms == (1, 5, 10, 25)
    assert s.largest == 25
    assert new_coin_system([1]).m == 1
    assert str(s) == "1,5,10,25"


def test_validation_errors():
    with pytest.raises(EmptyList):
        new_coin_system([])
    with pytest.raises(FirstNotOne):
        new_coin_system([5, 10])
    with pytest.raises(FirstNotOne):
        new_coin_system([2])
    with pytest.raises(NotStrictlyIncreasing):
        new_coin_system([1, 5, 5, 10])
    with pytest.raises(NotStrictlyIncreasing):
        new_coin_system([1, 10, 5])
    with pytest.raises(NonPositiveValue):
        new_coin_system([1, 0, 3])
    with pytest.raises(NonPositiveValue):
        new_coin_system([-1, 1, 3])
    # bool is an int subclass; True must not pass for the unit coin
    with pytest.raises(TypeError):
        new_coin_system([True, 5])
    with pytest.raises(TypeError):
        CoinSystem((1, 2, False))


def test_overflow_boundary():
    top = 2**63 - 1  # largest value whose double stays in 64-bit range
    assert new_coin_system([1, top]).largest == top
    with pytest.raises(Overflow):
        new_coin_system([1, 2**63])
    with pytest.raises(Overflow):
        new_coin_system([1, 2**64])


def test_gaps_examples():
    assert gaps(new_coin_system([1, 5, 10, 25])) == (1, 4, 5, 15)
    assert gaps(new_coin_system([1])) == (1,)
    assert gaps(new_coin_system([1, 2, 3])) == (1, 1, 1)


def test_gaps_sum_to_largest():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(1, 8)
        rest = sorted(rng.sample(range(2, 200), m - 1))
        s = new_coin_system([1] + rest)
        gs = s.gaps()
        assert all(g >= 1 for g in gs)
        assert sum(gs) == s.largest


def test_prefix():
    s = new_coin_system([1, 3, 7, 9])
    assert s.prefix(3).denoms == (1, 3, 7)
    assert s.prefix(1).denoms == (1,)


def test_representation_round_trip():
    s = new_coin_system([1, 7, 10, 11])
    r = Representation.from_counts(s, [3, 0, 0, 1])
    assert r.value == 14 and r.size == 4
    recomputed = sum(k * c for k, c in zip(r.counts, s.denoms))
    assert recomputed == r.value
    assert sum(r.counts) == r.size
    assert r.support() == (0, 3)


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation((1, -1), 0, 0)
    with pytest.raises(ValueError):
        Representation((1, 1), 5, 3)  # size mismatch
    with pytest.raises(ValueError):
        Representation.from_counts(new_coin_system([1, 2]), [1])


def test_counterexample_invariants():
    s = new_coin_system([1, 7, 10, 11])
    g = Representation.from_counts(s, [3, 0, 0, 1])
    o = Representation.from_counts(s, [0, 2, 0, 0])
    cex = Counterexample(14, g, o)
    assert cex.greedy.size > cex.optimal.size
    with pytest.raises(ValueError):
        Counterexample(15, g, o)  # values do not match x
    with pytest.raises(ValueError):
        Counterexample(14, o, g)  # greedy not worse


def test_verdict():
    assert Verdict().canonical
    s = new_coin_system([1, 7, 10, 11])
    w = Counterexample(
        14,
        Representation.from_counts(s, [3, 0, 0, 1]),
        Representation.from_counts(s, [0, 2, 0, 0]),
    )
    assert not Verdict(w).canonical
    assert Verdict(w).witness.x == 14


def test_systems_are_immutable():
    s = new_coin_system([1, 2, 4])
    with pytest.raises(Exception):
        s.denoms = (1, 2)
