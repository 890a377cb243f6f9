"""Differential tests: every applicable checker against the oracle on small
random systems, with each witness's sizes re-verified by brute force."""

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
)

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
