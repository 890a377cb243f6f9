"""Differential tests: every applicable checker against the oracle on small
random systems, with each witness's sizes re-verified by brute force."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import greedy_size_bruteforce, min_size_bruteforce
from coincanon import (
    check_five,
    check_four,
    check_three,
    is_canonical_oracle,
    is_canonical_tight_extended,
    is_tight,
    new_coin_system,
    pearson_check,
    smallest_counterexample,
)
from coincanon.core import Counterexample, Representation
from coincanon.fastcheck import METHODS
from coincanon.generate import enumerate_all

ARITY_CHECKS = {3: check_three, 4: check_four, 5: check_five}

small_systems = st.lists(
    st.integers(2, 40), min_size=2, max_size=7, unique=True
).map(lambda coins: new_coin_system([1] + sorted(coins)))


def _verdicts(system):
    yield "pearson", pearson_check(system)
    if system.m in ARITY_CHECKS:
        yield f"check_{system.m}", ARITY_CHECKS[system.m](system)
    if system.m >= 6 and is_tight(system)[0]:
        yield "tight-extended", is_canonical_tight_extended(system).verdict


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(small_systems)
def test_checkers_agree_with_the_oracle(system):
    d = system.denoms
    canonical = is_canonical_oracle(system).canonical
    for name, verdict in _verdicts(system):
        assert verdict.canonical == canonical, (name, system)
        w = verdict.witness
        if w is None:
            continue
        for rep in (w.greedy, w.optimal):
            assert sum(k * c for k, c in zip(rep.counts, d)) == w.x, (name, system)
            assert sum(rep.counts) == rep.size, (name, system)
        assert w.greedy.size == greedy_size_bruteforce(d, w.x), (name, system)
        assert w.optimal.size == min_size_bruteforce(d, w.x), (name, system)
        assert w.greedy.size > w.optimal.size, (name, system)


def _padded(rep, extra):
    return Representation(rep.counts + (0,) * extra, rep.value, rep.size)


def test_padding_above_the_smallest_counterexample_keeps_the_witness():
    # Coins above x, the smallest counterexample, change no greedy or optimal
    # size of an amount <= x, since both use only coins <= the amount. So x
    # stays the smallest counterexample, with the same representations and
    # zeros for the new coins: an exact answer at coin sizes no oracle scan
    # reaches. The new coins also exceed the old top coin, so they append.
    rng = random.Random(1918)
    corpus = (s for m, cmax in ((3, 24), (4, 24), (5, 24), (6, 18))
              for s in enumerate_all(m, cmax))
    checked = 0
    for system in corpus:
        want = smallest_counterexample(system)
        if want is None:
            continue
        d, x = system.denoms, want.x
        lo = max(x, d[-1])
        extra = sorted(rng.sample(range(lo + 1, x + 10**18 + 1), rng.randint(1, 3)))
        padded = new_coin_system(d + tuple(extra))
        n = len(extra)
        expected = Counterexample(x, _padded(want.greedy, n), _padded(want.optimal, n))
        deciders = {"auto": METHODS["auto"], "pearson": pearson_check}
        if padded.m in ARITY_CHECKS:
            deciders[f"check_{padded.m}"] = ARITY_CHECKS[padded.m]
        for name, decide in deciders.items():
            verdict = decide(padded, 2**64)
            assert verdict.witness == expected, (name, padded)
        checked += 1
    assert checked > 16_000
