"""Greedy/optimal solvers versus independent brute-force enumeration."""

import random

import pytest

from coincanon import (
    LimitExceeded,
    dp_table,
    greedy,
    greedy_size,
    new_coin_system,
    optimal,
    optimal_all,
)
from coincanon.solvers import _greedy_size, _walk

from _brute import (
    all_optimal_bruteforce,
    greedy_size_bruteforce,
    min_size_bruteforce,
)


def test_greedy_worked_example():
    s = new_coin_system([1, 7, 10, 11])
    r = greedy(s, 14)
    assert r.counts == (3, 0, 0, 1)
    assert r.size == 4 and r.value == 14


def test_greedy_zero_and_forced_chain():
    s = new_coin_system([1, 5, 10, 25])
    assert greedy(s, 0).counts == (0, 0, 0, 0)
    assert greedy(s, 0).size == 0
    assert greedy(s, 41).counts == (1, 1, 1, 1)


def test_greedy_prefix_condition():
    # The greedy counts are the unique representation whose value below each
    # denomination stays below that denomination.
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randint(1, 6)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 80), m - 1)))
        x = rng.randint(0, 150)
        r = greedy(s, x)
        prefix = 0
        for i in range(1, s.m):
            prefix += r.counts[i - 1] * s.denoms[i - 1]
            assert prefix < s.denoms[i]


def test_greedy_uniqueness_of_prefix_condition():
    def satisfies(system, counts):
        prefix = 0
        for i in range(1, system.m):
            prefix += counts[i - 1] * system.denoms[i - 1]
            if prefix >= system.denoms[i]:
                return False
        return True

    rng = random.Random(3)
    for _ in range(50):
        s = new_coin_system([1] + sorted(rng.sample(range(2, 30), 2)))
        x = rng.randint(1, 40)
        g = greedy(s, x).counts
        from _brute import all_representations
        for counts in all_representations(s.denoms, x):
            if counts != g:
                assert not satisfies(s, counts)
        assert satisfies(s, g)


def test_greedy_size_matches_full_representation():
    rng = random.Random(4)
    for _ in range(300):
        m = rng.randint(1, 7)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 500), m - 1)))
        x = rng.randint(0, 1200)
        assert greedy_size(s, x) == greedy(s, x).size
        if x:
            assert _greedy_size(s.denoms, x) == greedy_size_bruteforce(s.denoms, x)


def test_optimal_worked_examples():
    s = new_coin_system([1, 7, 10, 11])
    r = optimal(s, 14)
    assert r.counts == (0, 2, 0, 0) and r.size == 2
    assert optimal(s, 0).size == 0
    assert optimal(new_coin_system([1, 3, 4]), 6).counts == (0, 2, 0)


def test_optimal_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(150):
        m = rng.randint(1, 5)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 45), m - 1)))
        x = rng.randint(0, 60)
        r = optimal(s, x)
        assert r.value == x
        assert sum(k * c for k, c in zip(r.counts, s.denoms)) == x
        if x:
            assert r.size == min_size_bruteforce(s.denoms, x)


def test_optimal_is_deterministic_largest_first():
    # 4 = 3+1 and 2+2 both have size 2; the larger coin wins.
    s = new_coin_system([1, 2, 3])
    assert optimal(s, 4).counts == (1, 0, 1)


def test_optimal_all_examples():
    s = new_coin_system([1, 7, 10, 11])
    res = optimal_all(s, 14)
    assert {r.counts for r in res.representations} == {(0, 2, 0, 0)}
    assert not res.truncated
    s = new_coin_system([1, 3, 4])
    res = optimal_all(s, 7)
    assert {r.counts for r in res.representations} == {(0, 1, 1)}
    res = optimal_all(s, 0)
    assert {r.counts for r in res.representations} == {(0, 0, 0)}


def test_optimal_all_matches_bruteforce():
    rng = random.Random(6)
    for _ in range(80):
        m = rng.randint(2, 6)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 30), m - 1)))
        x = rng.randint(1, 40)
        res = optimal_all(s, x)
        assert not res.truncated
        got = {r.counts for r in res.representations}
        assert len(got) == len(res.representations)  # each exactly once
        assert got == all_optimal_bruteforce(s.denoms, x)
        sizes = {r.size for r in res.representations}
        assert sizes == {optimal(s, x).size}
        # optimal() is the walk's first item, so both keep one order.
        assert res.representations[0] == optimal(s, x)


def test_optimal_all_truncation_flag():
    # 1+2: amount 4 has reps (4,0), (2,1), (0,2); two are optimal-size 2.
    s = new_coin_system([1, 2])
    full = optimal_all(s, 4)
    assert len(full.representations) == 1  # only (0,2) has minimal size 2
    s = new_coin_system([1, 2, 3])
    res = optimal_all(s, 4, cap=1)
    assert res.truncated
    assert len(res.representations) == 1
    res = optimal_all(s, 4, cap=2)  # exactly cap representations: complete
    assert not res.truncated
    assert [r.counts for r in res.representations] == [(1, 0, 1), (0, 2, 0)]


def test_optimal_all_has_no_depth_limit():
    # One coin per step: 1000 quarters and 1500 twos lie far deeper than the
    # interpreter's recursion limit.
    res = optimal_all(new_coin_system([1, 5, 10, 25]), 25000)
    assert [r.counts for r in res.representations] == [(0, 0, 0, 1000)]
    assert not res.truncated
    res = optimal_all(new_coin_system([1, 2]), 3000)
    assert [r.counts for r in res.representations] == [(0, 1500)]


def test_walk_rejects_an_inconsistent_table():
    # sizes[2] == 1 claims a one-coin representation of 2 under coins 1 and 5.
    with pytest.raises(AssertionError, match="inconsistent size table"):
        next(_walk((1, 5), [0, 1, 1], 2))


def test_dp_table_examples():
    t = dp_table(new_coin_system([1, 2]), 5)
    assert t.opt_size == (0, 1, 1, 2, 2, 3)
    t = dp_table(new_coin_system([1]), 3)
    assert t.opt_size == (0, 1, 2, 3)
    t = dp_table(new_coin_system([1, 7, 10, 11]), 14)
    assert t.opt_size[14] == 2


def test_dp_table_invariants():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 6)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 60), m - 1)))
        limit = rng.randint(1, 120)
        t = dp_table(s, limit)
        assert t.opt_size[0] == 0
        for c in s.denoms:
            if c <= limit:
                assert t.opt_size[c] == 1
        for x in range(1, limit + 1):
            expect = 1 + min(t.opt_size[x - c] for c in s.denoms if c <= x)
            assert t.opt_size[x] == expect
            assert greedy(s, x).size >= t.opt_size[x]


def test_budget_guard():
    s = new_coin_system([1, 5])
    with pytest.raises(LimitExceeded):
        dp_table(s, 10, budget=5)
    with pytest.raises(LimitExceeded):
        optimal(s, 100, budget=50)
    with pytest.raises(LimitExceeded):
        optimal_all(s, 100, budget=50)
    assert dp_table(s, 10, budget=11).limit == 10


def test_negative_amounts_rejected():
    s = new_coin_system([1, 2])
    with pytest.raises(ValueError):
        greedy(s, -1)
    with pytest.raises(ValueError):
        optimal(s, -1)
