"""Arity-specific characterization checks against the oracle."""

import random

import pytest

from coincanon import (
    TheoremViolation,
    WrongArity,
    check_five,
    check_four,
    check_three,
    first_counterexample_in,
    is_canonical_oracle,
    is_canonical_tight_extended,
    kz3_analysis,
    new_coin_system,
    one_point_extension,
    optimal,
    propagation_witness,
    smallest_counterexample,
)
from coincanon.core import Representation
from coincanon.generate import enumerate_all
from coincanon.oracle import counterexample_at


def test_kz3_examples():
    a = kz3_analysis(new_coin_system([1, 3, 4]))
    assert (a.q, a.r, a.non_canonical) == (1, 1, True)
    a = kz3_analysis(new_coin_system([1, 5, 10]))
    assert (a.q, a.r, a.non_canonical) == (2, 0, False)
    a = kz3_analysis(new_coin_system([1, 2, 3]))
    assert (a.q, a.r, a.non_canonical) == (1, 1, False)


def test_kz3_decomposition_invariant():
    rng = random.Random(20)
    for _ in range(200):
        c2 = rng.randint(2, 120)
        c3 = rng.randint(c2 + 1, 400)
        a = kz3_analysis(new_coin_system([1, c2, c3]))
        assert c3 == a.q * c2 + a.r
        assert 0 <= a.r < c2
        assert a.non_canonical == (0 < a.r < c2 - a.q)


def test_check_three_examples():
    v = check_three(new_coin_system([1, 3, 4]))
    assert not v.canonical and v.witness.x == 6
    assert check_three(new_coin_system([1, 5, 10])).canonical
    assert check_three(new_coin_system([1, 2, 3])).canonical
    with pytest.raises(WrongArity):
        check_three(new_coin_system([1, 2, 3, 4]))


def test_check_three_equals_oracle_small():
    for c2 in range(2, 60):
        for c3 in range(c2 + 1, 61):
            s = new_coin_system([1, c2, c3])
            v = check_three(s)
            o = smallest_counterexample(s)
            assert v.canonical == (o is None), s
            if o is not None:
                assert v.witness.x == o.x


def test_check_three_closed_form_witness_is_the_oracle_witness():
    # The closed-form witness ((q+1)*c2, optimal (0, q+1, 0)) must be the
    # scan's smallest counterexample down to both count vectors.
    checked = 0
    for c3 in range(3, 301):
        for c2 in range(2, c3):
            s = new_coin_system([1, c2, c3])
            v = check_three(s)
            if not v.canonical:
                assert v.witness == smallest_counterexample(s), s
                checked += 1
    assert checked == 38_367


def test_proof_witness_amount_fires_when_non_canonical():
    # When the quotient/remainder condition fires, c2 + c3 - 1 admits the
    # representation (r-1, q+1, 0) of size r+q, strictly below the greedy
    # size c2, so it is a counterexample even if not the smallest one.
    rng = random.Random(21)
    fired = 0
    for _ in range(300):
        c2 = rng.randint(2, 60)
        c3 = rng.randint(c2 + 1, 200)
        s = new_coin_system([1, c2, c3])
        a = kz3_analysis(s)
        if not a.non_canonical:
            continue
        fired += 1
        x = c2 + c3 - 1
        from coincanon import greedy
        g = greedy(s, x)
        assert g.counts == (c2 - 1, 0, 1) and g.size == c2
        alt = Representation.from_counts(s, (a.r - 1, a.q + 1, 0))
        assert alt.value == x and alt.size == a.r + a.q
        assert alt.size < g.size
        assert optimal(s, x).size <= alt.size
    assert fired > 50


def test_one_point_extension_examples():
    p = new_coin_system([1, 5, 10])
    assert one_point_extension(p, 25).canonical
    v = one_point_extension(p, 12)
    assert not v.canonical and v.witness.x == 20
    assert v.witness.optimal.size == 2  # 10+10
    assert one_point_extension(p, 30).canonical  # exact multiple


def test_one_point_extension_rejects_non_extension():
    p = new_coin_system([1, 5, 10])
    from coincanon import NotAnExtension
    with pytest.raises(NotAnExtension):
        one_point_extension(p, 10)
    with pytest.raises(NotAnExtension):
        one_point_extension(p, 3)


def test_one_point_extension_agrees_with_oracle():
    rng = random.Random(22)
    checked = 0
    for _ in range(400):
        m = rng.randint(1, 4)
        prefix = new_coin_system([1] + sorted(rng.sample(range(2, 50), m - 1)))
        if not is_canonical_oracle(prefix).canonical:
            continue
        c_new = prefix.largest + rng.randint(1, 60)
        v = one_point_extension(prefix, c_new)
        extended = new_coin_system(prefix.denoms + (c_new,))
        assert v.canonical == is_canonical_oracle(extended).canonical
        if not v.canonical:
            # The closed-form witness is the one a DP at x would build.
            assert v.witness == counterexample_at(extended, v.witness.x)
        checked += 1
    assert checked > 150


def test_check_four_examples():
    v = check_four(new_coin_system([1, 7, 10, 11]))
    assert not v.canonical and v.witness.x == 14
    assert check_four(new_coin_system([1, 5, 10, 25])).canonical
    v = check_four(new_coin_system([1, 5, 10, 12]))
    assert not v.canonical and v.witness.x == 20
    with pytest.raises(WrongArity):
        check_four(new_coin_system([1, 2, 3]))


def test_check_four_equals_oracle_small():
    count = 0
    for c2 in range(2, 20):
        for c3 in range(c2 + 1, 21):
            for c4 in range(c3 + 1, 22):
                s = new_coin_system([1, c2, c3, c4])
                assert check_four(s).canonical == is_canonical_oracle(s).canonical, s
                count += 1
    assert count == 1140  # C(20, 3) systems drawn from {2..21}


def test_check_five_examples():
    assert check_five(new_coin_system([1, 2, 5, 6, 10])).canonical
    v = check_five(new_coin_system([1, 2, 5, 6, 11]))
    assert not v.canonical
    v = check_five(new_coin_system([1, 5, 10, 25, 30]))
    assert not v.canonical and v.witness.x == 50
    assert v.witness.optimal.size == 2  # 25+25
    with pytest.raises(WrongArity):
        check_five(new_coin_system([1, 2, 3, 4]))


def test_check_five_family_and_prefix_status():
    # <1, 2, c3, c3+1, 2*c3> is canonical for c3 > 3 with a non-canonical
    # four-coin prefix; at c3 = 3 the family degenerates.
    for c3 in range(4, 25):
        s = new_coin_system([1, 2, c3, c3 + 1, 2 * c3])
        assert check_five(s).canonical
        assert is_canonical_oracle(s).canonical
        four = s.prefix(4)
        assert not check_four(four).canonical
        assert not is_canonical_oracle(four).canonical
    degenerate = new_coin_system([1, 2, 3, 4, 6])
    assert check_five(degenerate).canonical == is_canonical_oracle(degenerate).canonical


def test_check_five_equals_oracle_small():
    count = 0
    for c2 in range(2, 12):
        for c3 in range(c2 + 1, 13):
            for c4 in range(c3 + 1, 14):
                for c5 in range(c4 + 1, 15):
                    s = new_coin_system([1, c2, c3, c4, c5])
                    assert check_five(s).canonical == is_canonical_oracle(s).canonical, s
                    count += 1
    assert count == 715


def test_check_five_fallback_witness_is_the_smallest():
    # Canonical three-coin prefix, non-canonical four-coin prefix, outside
    # the canonical family: the scan stops at the prefix's one-point amount
    # when that lies below c5, and must still find the smallest counterexample.
    checked = 0
    for s in enumerate_all(5, 40):
        if kz3_analysis(s.prefix(3)).non_canonical or check_four(s.prefix(4)).canonical:
            continue
        v = check_five(s)
        if v.canonical:
            continue
        assert v.witness == smallest_counterexample(s), s
        checked += 1
    assert checked > 1000


def test_propagation_examples():
    w = propagation_witness(new_coin_system([1, 7, 10, 50]))
    assert w.x == 14 and w.x < 50 + 10
    w = propagation_witness(new_coin_system([1, 3, 4, 20]))
    assert w.x == 6 and w.x < 24
    w = propagation_witness(new_coin_system([1, 7, 10, 11]))
    assert w.x == 14 and w.x < 21


def test_propagation_bound_random():
    rng = random.Random(23)
    checked = 0
    for _ in range(300):
        m = rng.randint(4, 7)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 200), m - 1)))
        a = kz3_analysis(s.prefix(3))
        if not a.non_canonical:
            continue
        w = propagation_witness(s)
        assert w.x < s.largest + s.denoms[2]
        assert w == smallest_counterexample(s), s
        checked += 1
    assert checked > 100


def test_propagation_witness_equals_oracle_small_exhaustive():
    # Every four- and five-coin system up to 24 with a non-canonical
    # three-coin prefix. Small coins tie among optimal representations
    # (1,3,4,5,6 at 8: 5+3 and 4+4), so the whole witness pins optimal()'s
    # choice, not just the amount.
    checked = 0
    for m in (4, 5):
        for s in enumerate_all(m, 24):
            if kz3_analysis(s.prefix(3)).non_canonical:
                assert propagation_witness(s) == smallest_counterexample(s), s
                checked += 1
    assert checked > 5000


@pytest.mark.parametrize("coins", [
    (1, *range(3, 9)),  # 1,3,4,...,8
    (1, *range(3, 67)),  # 1,3,4,...,66: many small coins
    (1, 3, 4, 100_003),  # a top coin far above the witness
])
def test_propagation_witness_equals_the_window_scan(coins):
    # propagation_witness (Pearson's scan) and the tight check's step 1 (the
    # window scan below c_m + c3) report the same witness.
    s = new_coin_system(coins)
    want = first_counterexample_in(s, 1, s.largest + s.denoms[2])
    assert propagation_witness(s) == want
    if s.m >= 6:
        r = is_canonical_tight_extended(s)
        assert r.step1_fired and r.verdict.witness == want


def test_propagation_requires_non_canonical_prefix():
    with pytest.raises(ValueError):
        propagation_witness(new_coin_system([1, 5, 10, 25]))
    with pytest.raises(WrongArity):
        propagation_witness(new_coin_system([1, 3, 4]))


def test_witnesses_are_verified_counterexamples():
    # Verdict invariants re-check greedy/optimal sizes; spot-check values too.
    rng = random.Random(24)
    for _ in range(200):
        m = rng.randint(3, 5)
        s = new_coin_system([1] + sorted(rng.sample(range(2, 60), m - 1)))
        checker = {3: check_three, 4: check_four, 5: check_five}[m]
        v = checker(s)
        if v.witness is not None:
            assert v.witness.greedy.value == v.witness.x
            assert v.witness.optimal.value == v.witness.x
            assert v.witness.greedy.size > v.witness.optimal.size
            assert v.witness.optimal.size == optimal(s, v.witness.x).size
