"""Generators, corpus serialization, and the tightness filter."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincanon import (
    BudgetExhausted,
    InvalidSystem,
    Overflow,
    arithmetic_system,
    enumerate_all,
    family,
    fibonacci_system,
    format_corpus_line,
    geometric_system,
    is_canonical_oracle,
    is_tight,
    new_coin_system,
    parse_corpus_line,
    random_system,
    read_corpus,
    tight_corpus,
)
from coincanon.generate import near_arithmetic_corpus, parse_coins


def test_family_examples():
    assert arithmetic_system(5, 1).denoms == (1, 2, 3, 4, 5)
    assert geometric_system(4, 2).denoms == (1, 2, 4, 8)
    assert fibonacci_system(5).denoms == (1, 2, 3, 5, 8)
    assert family("arithmetic", 3, step=4).denoms == (1, 5, 9)
    assert family("geometric", 3, ratio=3).denoms == (1, 3, 9)
    assert family("fibonacci", 2).denoms == (1, 2)
    with pytest.raises(ValueError):
        family("unknown", 3)
    with pytest.raises(ValueError):
        arithmetic_system(0)
    with pytest.raises(ValueError):
        geometric_system(3, 1)


def test_family_overflow():
    with pytest.raises(Overflow):
        geometric_system(70, 2)  # 2**69 exceeds the 64-bit range


def test_enumerate_all_examples():
    got = [s.denoms for s in enumerate_all(3, 4)]
    assert got == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
    assert [s.denoms for s in enumerate_all(1, 5)] == [(1,)]
    assert sum(1 for _ in enumerate_all(4, 6)) == math.comb(5, 3)


def test_enumerate_all_valid_distinct_ordered():
    seen = set()
    prev = None
    for s in enumerate_all(3, 9):
        assert s.denoms not in seen
        seen.add(s.denoms)
        if prev is not None:
            assert prev < s.denoms  # lexicographic
        prev = s.denoms
    assert len(seen) == math.comb(8, 2)


def test_random_system_determinism_and_membership():
    a = random_system(3, 10, seed=123)
    b = random_system(3, 10, seed=123)
    assert a == b
    population = {s.denoms for s in enumerate_all(3, 10)}
    for seed in range(50):
        assert random_system(3, 10, seed).denoms in population


def test_random_system_uniformity():
    # 10 possible systems for (3, 6); each should appear with frequency
    # 0.1 +- 0.01 over 1e5 seeded draws.
    draws = 100_000
    counts = Counter(random_system(3, 6, seed).denoms for seed in range(draws))
    assert len(counts) == 10
    for freq in counts.values():
        assert abs(freq / draws - 0.1) < 0.01


def test_tight_corpus_filter_contract():
    entries = tight_corpus(4, 11, seed=5, target_count=40)
    assert len(entries) == 40
    denoms_seen = set()
    for system, verdict in entries:
        assert system.denoms not in denoms_seen
        denoms_seen.add(system.denoms)
        assert is_tight(system)[0]
        assert verdict.canonical == is_canonical_oracle(system).canonical
    # the classic tight non-canonical instance is reachable at this size
    assert (1, 7, 10, 11) in denoms_seen


def test_tight_corpus_excludes_untight():
    # <1,7,10,50> is not tight, so it can never be emitted.
    entries = tight_corpus(4, 50, seed=1, target_count=40)
    assert all(s.denoms != (1, 7, 10, 50) for s, _ in entries)
    assert not is_tight(new_coin_system([1, 7, 10, 50]))[0]


def test_tight_corpus_budget():
    with pytest.raises(BudgetExhausted):
        tight_corpus(4, 12, seed=0, target_count=1000, max_attempts=200)
    for make in (tight_corpus, near_arithmetic_corpus):
        with pytest.raises(ValueError, match="target_count must be at least 1"):
            make(6, 120, seed=0, target_count=0)


def test_corpus_line_round_trip():
    s = new_coin_system([1, 7, 10, 11])
    line = format_corpus_line(s, {"tight": 1, "canonical": 0, "x": 14})
    assert line == "1,7,10,11 # tight=1 canonical=0 x=14"
    parsed, ann = parse_corpus_line(line)
    assert parsed == s
    assert ann == {"tight": "1", "canonical": "0", "x": "14"}
    assert parse_corpus_line("   ") is None
    assert parse_corpus_line("# pure comment") is None
    bare, ann2 = parse_corpus_line("1,2,4")
    assert bare.denoms == (1, 2, 4) and ann2 == {}
    # The body is parsed by ``parse_coins``, so malformed bodies raise
    # ``InvalidSystem`` as the CLI does.
    for bad in ("abc", "1,,5", "1, 5,", "1," + "9" * 5000, "1,5,5 # x=1"):
        with pytest.raises(InvalidSystem):
            parse_corpus_line(bad)


def test_read_corpus():
    lines = [
        "# corpus header",
        "1,2,4",
        "",
        "1,7,10,11 # tight=1",
    ]
    got = list(read_corpus(lines))
    assert [s.denoms for s, _ in got] == [(1, 2, 4), (1, 7, 10, 11)]
    assert got[1][1] == {"tight": "1"}


def test_named_families_are_canonical_small():
    rng = random.Random(42)
    for _ in range(40):
        kind = rng.choice(["arithmetic", "geometric", "fibonacci"])
        m = rng.randint(1, 6)
        s = family(kind, m, step=rng.randint(1, 6), ratio=rng.randint(2, 4))
        assert is_canonical_oracle(s).canonical, s


# Valid systems, comma-joined fields (some malformed) with an optional
# annotation tail, and arbitrary text, so the draws reach both outcomes.
_fields = st.one_of(
    st.integers(-3, 60).map(str),
    st.sampled_from(["", " 7 ", "x", "1_0", "\u0663", "9" * 30, "+4", "0x5"]),
)
_corpus_text = st.one_of(
    st.lists(st.integers(2, 60), unique=True, max_size=6).map(
        lambda v: ",".join(map(str, [1] + sorted(v)))
    ),
    st.tuples(
        st.lists(_fields, min_size=1, max_size=8).map(",".join),
        st.sampled_from(["", " # tight=1 x=14", "#", " # a=b=c"]),
    ).map("".join),
    st.text(alphabet="0123456789,# =-+_ \t\n", max_size=40),
    st.text(max_size=40),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_corpus_text)
def test_parsers_return_a_system_or_raise_invalid_system(text):
    for parse in (parse_coins, parse_corpus_line):
        try:
            parsed = parse(text)
        except InvalidSystem:
            continue
        if parse is parse_corpus_line:
            if parsed is None:
                assert not text.partition("#")[0].strip()
                continue
            parsed = parsed[0]
        assert parsed.denoms[0] == 1
        assert all(a < b for a, b in zip(parsed.denoms, parsed.denoms[1:]))
