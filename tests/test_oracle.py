"""The exhaustive oracle: worked examples, window soundness, brute-force
cross-checks, and the prefix cache the sweeps scan through."""

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
from coincanon.generate import enumerate_all
from coincanon.oracle import _extend, _PrefixCache, _scan, _window
from coincanon.solvers import _greedy_size, _opt_sizes

from _brute import (
    greedy_size_bruteforce,
    min_size_bruteforce,
    smallest_counterexample_bruteforce,
)


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
    # Random ranges against enumeration, which shares no code with _scan.
    rng = random.Random(14)
    for _ in range(150):
        d = tuple([1] + sorted(rng.sample(range(2, 16), rng.randint(1, 3))))
        start, stop, stop_at_hit = rng.randint(0, 30), rng.randint(0, 40), rng.random() < 0.5
        hit, grd, opt = _scan(d, start, stop, None, stop_at_hit)
        want = [x for x in range(start, stop)
                if greedy_size_bruteforce(d, x) > min_size_bruteforce(d, x)]
        assert hit == (want[0] if want else None), (d, start, stop)
        n = hit + 1 if stop_at_hit and want else max(stop, 1)
        assert grd == [greedy_size_bruteforce(d, x) for x in range(n)], (d, start, stop)
        assert opt == [min_size_bruteforce(d, x) for x in range(n)], (d, start, stop)


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


def _dense_systems():
    """Many-coin systems where most amounts are coins or one coin above one:
    1..m, arithmetic runs with steps 2-4, 1..m with holes, and seeded random
    m-coin systems drawn from [2, 3m]."""
    rng = random.Random(19)
    for m in (1, 2, 3, 5, 17, 64, 150, 300):
        yield tuple(range(1, m + 1))
    for step in (2, 3, 4):
        for m in (3, 9, 40, 120):
            yield tuple(1 + i * step for i in range(m))
    for m in (10, 40, 120):
        for holes in (1, 3, m // 4):
            yield tuple([1] + sorted(rng.sample(range(2, m + 1), m - 1 - holes)))
    for m in (4, 8, 16, 32, 64, 128):
        for _ in range(3):
            yield tuple([1] + sorted(rng.sample(range(2, 3 * m + 1), m - 1)))


def test_dense_scans_match_an_independent_dp():
    # _opt_sizes fills its table coin by coin and shares no code with _extend;
    # greedy sizes come one amount at a time.
    for d in _dense_systems():
        stop = 2 * d[-1]
        hit, grd, opt = _scan(d, 1, stop, None, False)
        assert grd == [_greedy_size(d, x) for x in range(stop)], d
        assert opt == _opt_sizes(d, stop - 1), d
        first = next((x for x in range(stop) if grd[x] != opt[x]), None)
        assert hit == first, d
        assert _scan(d, 1, stop, None, True)[0] == first, d


def test_extend_reads_few_sizes_per_amount_on_dense_systems():
    # Every amount of 1..512 is a coin, and every other amount up to 1024 is
    # one coin above the top coin, so each amount is settled after at most two
    # reads of the optimal sizes; a full scan of the coins reads about 256.
    class Counting(list):
        reads = 0

        def __getitem__(self, i):
            Counting.reads += 1
            return list.__getitem__(self, i)

    d = tuple(range(1, 513))
    grd, opt, hits = [0], Counting([0]), []
    _extend(d, grd, opt, hits, 1, 1024, False)
    assert list(opt) == _opt_sizes(d, 1023) and hits == []
    assert Counting.reads <= 2 * 1024


def test_budget_guard():
    s = new_coin_system([1, 7, 10, 5000])
    with pytest.raises(LimitExceeded):
        smallest_counterexample(s, budget=100)
    with pytest.raises(LimitExceeded):
        _scan(s.denoms, 1, 101, 100)


def _scan_kinds(d, rng):
    """The scans the sweeps make of one system, in a random order, plus one
    over a random range: (denoms, start, stop, stop_at_hit)."""
    top = d[-1]
    kinds = [
        (d, 1, 2 * top, True),  # from 1, as _Scans.smallest
        (d, *_window(d), True),  # the oracle's window
        (d[:-1] or d, *_window(d[:-1] or d), True),  # the sandwich gate's prefix
        (d, 1, 2 * d[-2] + 1 if len(d) > 1 else 3, False),  # _Scans.arrays
        (d, rng.randint(0, 2 * top), rng.randint(0, 3 * top), rng.random() < 0.5),
    ]
    rng.shuffle(kinds)
    return kinds[: rng.randint(1, len(kinds))]


def _assert_cache_matches_scan(stream, seed):
    rng = random.Random(seed)
    cache = _PrefixCache()
    scans = 0
    for d in stream:
        for denoms, start, stop, stop_at_hit in _scan_kinds(d, rng):
            want = _scan(denoms, start, stop, None, stop_at_hit)
            hit, grd, opt = cache.scan(denoms, start, stop, None, stop_at_hit)
            # The cache's lists may run further than _scan's, never shorter.
            n = len(want[1])
            assert (hit, grd[:n], opt[:n]) == want, (denoms, start, stop, stop_at_hit)
            scans += 1
    return scans


def test_prefix_cache_matches_scan_in_any_order():
    by_m = {m: [s.denoms for s in enumerate_all(m, 8 + m)] for m in range(1, 9)}
    mixed = [d for ds in by_m.values() for d in ds]
    random.Random(13).shuffle(mixed)
    scans = 0
    for m, ds in by_m.items():
        scans += _assert_cache_matches_scan(ds, m)  # lexicographic
        scans += _assert_cache_matches_scan(random.Random(m).sample(ds, len(ds)), m)
    scans += _assert_cache_matches_scan(mixed, 0)
    # Dense many-coin systems with long shared prefixes, shuffled.
    dense = [d[:k] for d in _dense_systems() if len(d) > 1
             for k in sorted({2, len(d) // 2, len(d)})]
    random.Random(17).shuffle(dense)
    scans += _assert_cache_matches_scan(dense, 17)
    assert scans > 20_000


def test_prefix_cache_reuses_the_previous_systems_hit():
    cache = _PrefixCache()
    assert cache.scan((1, 3, 4, 20), 1, 40, None, True)[0] == 6
    # 1,3,4,21 shares every amount below 20, so 6 comes back without a scan,
    # from the window start on too; a range above it finds the next one.
    hit, grd, opt = cache.scan((1, 3, 4, 21), 6, 25, None, True)
    assert hit == 6 and len(grd) == len(opt) == 7
    assert cache.scan((1, 3, 4, 21), 7, 25, None, True)[0] == 10
    assert cache.scan((1, 3, 4, 21), 7, 10, None, True)[0] is None
    # A reused hit still checks the budget first.
    with pytest.raises(LimitExceeded):
        cache.scan((1, 3, 4, 21), 1, 101, 100, True)
    with pytest.raises(LimitExceeded):
        cache.scan((1, 3, 4, 22), 1, 101, 100, True)
    assert cache.scan((1, 3, 4, 22), 1, 100, 100, True)[0] == 6


def test_greedy_never_below_optimal():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 6)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 60), m - 1)))
        for x in rng.sample(range(0, 150), 10):
            g = greedy(s, x).size
            assert g >= min_size_bruteforce(s.denoms, x) if x <= 60 else True
