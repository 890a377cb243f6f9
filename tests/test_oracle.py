"""The exhaustive oracle: worked examples, window soundness, and brute-force
cross-checks."""

import random

import pytest

from coincanon import (
    LimitExceeded,
    counterexample_at,
    disjoint_support,
    first_counterexample_in,
    greedy,
    is_canonical_oracle,
    is_tight,
    new_coin_system,
    optimal_all,
    smallest_counterexample,
)
from coincanon.oracle import _scan

from _brute import min_size_bruteforce, smallest_counterexample_bruteforce


def test_worked_examples():
    s1 = new_coin_system([1, 7, 10, 11])
    cex = smallest_counterexample(s1)
    assert cex.x == 14
    assert cex.greedy.counts == (3, 0, 0, 1) and cex.greedy.size == 4
    assert cex.optimal.counts == (0, 2, 0, 0) and cex.optimal.size == 2

    s2 = new_coin_system([1, 7, 10, 50])
    cex2 = smallest_counterexample(s2)
    assert cex2.x == 14
    # With a 50 on top the greedy at 14 is 10+1+1+1+1; the optimal is the
    # same two-sevens representation as under s1.
    assert cex2.greedy.counts == (4, 0, 1, 0) and cex2.greedy.size == 5
    assert cex2.optimal.counts == (0, 2, 0, 0) and cex2.optimal.size == 2

    assert smallest_counterexample(new_coin_system([1, 5, 10, 25])) is None


def test_three_coin_example():
    cex = smallest_counterexample(new_coin_system([1, 3, 4]))
    assert cex.x == 6
    assert cex.greedy.size == 3 and cex.optimal.size == 2


def test_is_canonical_examples():
    assert is_canonical_oracle(new_coin_system([1, 2, 3])).canonical
    v = is_canonical_oracle(new_coin_system([1, 7, 10, 50]))
    assert not v.canonical and v.witness.x == 14
    assert is_canonical_oracle(new_coin_system([1, 2, 5, 6, 10])).canonical


def test_small_systems_always_canonical():
    assert smallest_counterexample(new_coin_system([1])) is None
    # The window below three coins is empty, so no budget applies.
    assert smallest_counterexample(new_coin_system([1]), budget=0) is None
    assert smallest_counterexample(new_coin_system([1, 2]), budget=0) is None
    for c2 in range(2, 40):
        assert smallest_counterexample(new_coin_system([1, c2])) is None


def test_is_tight_examples():
    assert is_tight(new_coin_system([1, 7, 10, 11])) == (True, None)
    tight, cex = is_tight(new_coin_system([1, 7, 10, 50]))
    assert not tight and cex.x == 14 and cex.x < 50
    assert is_tight(new_coin_system([1])) == (True, None)


def test_canonical_implies_tight():
    rng = random.Random(8)
    for _ in range(100):
        m = rng.randint(1, 6)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 80), m - 1)))
        if is_canonical_oracle(s).canonical:
            assert is_tight(s)[0]


def test_counterexample_at():
    s = new_coin_system([1, 7, 10, 11])
    assert counterexample_at(s, 13) is None
    cex = counterexample_at(s, 14)
    assert cex.x == 14 and cex.greedy.size == 4
    assert counterexample_at(s, 7) is None


def test_first_counterexample_in_range():
    s = new_coin_system([1, 3, 4])
    assert first_counterexample_in(s, 1, 6) is None
    assert first_counterexample_in(s, 1, 7).x == 6
    assert first_counterexample_in(s, 7, 100).x == 10  # 3+3+4 beats 4+4+1+1


def test_scan_witness_equals_dp_witness():
    # first_counterexample_in backtracks from the scan's table; it must give
    # exactly what a separate DP to the hit gives, tie-break included.
    rng = random.Random(12)
    compared = 0
    for _ in range(300):
        m = rng.randint(3, 8)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 200), m - 1)))
        cex = first_counterexample_in(s, 1, s.denoms[-2] + s.denoms[-1])
        if cex is not None:
            assert cex == counterexample_at(s, cex.x), s
            compared += 1
    assert compared > 150


def test_scan_arrays_end_at_the_hit():
    d = (1, 3, 4)
    hit, grd, opt = _scan(d, 1, 1000, None)
    assert hit == 6 and len(grd) == len(opt) == 7
    hit, grd, opt = _scan(d, 1, 1000, None, stop_at_hit=False)
    assert hit == 6 and len(grd) == len(opt) == 1000
    hit, grd, opt = _scan((1, 5, 10, 25), 1, 60, None)
    assert hit is None and len(grd) == len(opt) == 60
    assert opt[:7] == [0, 1, 2, 3, 4, 1, 2]


def test_oracle_matches_bruteforce_scan():
    # Verdicts and smallest-counterexample values against pure enumeration.
    rng = random.Random(9)
    for _ in range(60):
        m = rng.randint(3, 5)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 25), m - 1)))
        limit = s.denoms[-2] + s.denoms[-1]
        brute = smallest_counterexample_bruteforce(s.denoms, limit)
        ours = smallest_counterexample(s)
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert ours.x == brute
            assert ours.optimal.size == min_size_bruteforce(s.denoms, ours.x)


def test_window_soundness_small_exhaustive():
    # Scanning without the window finds the same smallest counterexample,
    # strictly inside the window, for every 3-coin system up to 30.
    for c2 in range(2, 30):
        for c3 in range(c2 + 1, 31):
            s = new_coin_system([1, c2, c3])
            unrestricted = first_counterexample_in(s, 1, 2 * c3)
            windowed = smallest_counterexample(s)
            assert (unrestricted is None) == (windowed is None)
            if windowed is not None:
                assert unrestricted.x == windowed.x
                assert c3 + 1 < windowed.x < c2 + c3


def test_disjoint_support_at_smallest_counterexample():
    rng = random.Random(10)
    checked = 0
    for _ in range(150):
        m = rng.randint(3, 5)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 40), m - 1)))
        cex = smallest_counterexample(s)
        if cex is None:
            continue
        checked += 1
        greedy_support = set(cex.greedy.support())
        reps = optimal_all(s, cex.x)
        assert not reps.truncated
        assert any(
            greedy_support.isdisjoint(r.support()) for r in reps.representations
        )
        # The universal form, against the enumeration as the reference.
        assert all(
            greedy_support.isdisjoint(r.support()) for r in reps.representations
        )
        assert disjoint_support(s).holds
    assert checked > 30


def test_budget_guard():
    s = new_coin_system([1, 7, 10, 5000])
    with pytest.raises(LimitExceeded):
        smallest_counterexample(s, budget=100)
    with pytest.raises(LimitExceeded):
        _scan(s.denoms, 1, 101, 100)


def test_greedy_never_below_optimal():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 6)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 60), m - 1)))
        for x in rng.sample(range(0, 150), 10):
            g = greedy(s, x).size
            assert g >= min_size_bruteforce(s.denoms, x) if x <= 60 else True
