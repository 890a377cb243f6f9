"""The benchmark's reference checker against count-vector enumeration.

Run with ``python3 perfbench/check_refcheck.py`` or
``python3 -m pytest -q perfbench/check_refcheck.py``. The file name keeps it
out of the repository's own pytest run, whose time it would only lengthen.
"""

from __future__ import annotations

from itertools import combinations, product

import refcheck


def systems(m: int, top: int):
    for rest in combinations(range(2, top + 1), m - 1):
        yield (1,) + rest


def brute_min_size(denoms, x):
    """Fewest coins over every count vector of the non-unit coins."""
    ranges = [range(x // c + 1) for c in denoms[1:]]
    best = x
    for counts in product(*ranges):
        rest = x - sum(k * c for k, c in zip(counts, denoms[1:]))
        if rest >= 0:
            best = min(best, sum(counts) + rest)
    return best


def brute_greedy_size(denoms, x):
    size = 0
    while x:
        x -= max(c for c in denoms if c <= x)
        size += 1
    return size


def brute_smallest(denoms, stop):
    for x in range(1, stop):
        if brute_greedy_size(denoms, x) > brute_min_size(denoms, x):
            return x
    return None


def test_sizes_match_enumeration():
    for m in (2, 3, 4):
        for d in systems(m, 9):
            limit = 2 * d[-1] + 3
            grd, opt = refcheck.sizes(d, limit)
            for x in range(limit + 1):
                assert opt[x] == brute_min_size(d, x), (d, x)
                assert grd[x] == brute_greedy_size(d, x) == refcheck.greedy_size(d, x), (d, x)


def test_greedy_counts_represent_the_amount():
    d = (1, 7, 10, 11)
    for x in range(60):
        counts = refcheck.greedy_counts(d, x)
        assert sum(k * c for k, c in zip(counts, d)) == x
        assert sum(counts) == brute_greedy_size(d, x)


def test_smallest_counterexample_matches_enumeration_past_the_window():
    # The brute scan runs to 2*top + 3, beyond the window the reference uses.
    for m in (3, 4, 5):
        for d in systems(m, 11):
            assert refcheck.smallest_counterexample(d) == brute_smallest(d, 2 * d[-1] + 4), d


def test_known_systems():
    assert refcheck.smallest_counterexample((1, 7, 10, 11)) == 14
    assert refcheck.smallest_counterexample((1, 5, 10, 25, 50, 100)) is None
    assert refcheck.smallest_counterexample((1, 3, 4)) == 6
    assert refcheck.is_tight((1, 7, 10, 11))
    assert not refcheck.is_tight((1, 3, 4, 10))


def test_three_coin_closed_form():
    for c2 in range(2, 40):
        for c3 in range(c2 + 1, 90):
            assert refcheck.three_coin_counterexample(c2, c3) == \
                refcheck.smallest_counterexample((1, c2, c3)), (c2, c3)


def test_one_point_amount_decides_an_extension_of_a_canonical_system():
    checked = 0
    for m in (4, 5):
        for d in systems(m, 24):
            if refcheck.smallest_counterexample(d[:-1]) is not None:
                continue
            x = refcheck.one_point_amount(d)
            k = d[-1] // d[-2]
            fires = d[-1] % d[-2] != 0 and refcheck.greedy_size(d, x) > k + 1
            assert fires == (refcheck.smallest_counterexample(d) is not None), d
            if fires:
                grd, opt = refcheck.sizes(d, x)
                assert grd[x] > opt[x], d
                checked += 1
    assert checked > 100


def test_prefix_counterexample_below_the_next_coin_is_the_smallest():
    checked = 0
    for d in systems(5, 20):
        for k in (3, 4):
            x = refcheck.smallest_counterexample(d[:k])
            if x is not None and x < d[k]:
                assert refcheck.smallest_counterexample(d) == x, d
                checked += 1
    assert checked > 100


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
