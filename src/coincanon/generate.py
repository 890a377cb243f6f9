"""Coin-system generators: named families, exhaustive enumeration, seeded
random sampling, and tightness-filtered corpora.

Corpus serialization is one system per line, comma-separated denominations,
with optional ``key=value`` annotations after a ``#``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from random import Random
from typing import Iterable, Iterator, Mapping, Optional

from .core import BudgetExhausted, CoinSystem, InvalidSystem, Verdict, new_coin_system
from .oracle import _scan, is_canonical_oracle


def arithmetic_system(m: int, step: int = 1) -> CoinSystem:
    """1, 1+step, 1+2*step, ... - starts at 1 so the unit coin is present."""
    if m < 1 or step < 1:
        raise ValueError("need m >= 1 and step >= 1")
    return new_coin_system(1 + i * step for i in range(m))


def geometric_system(m: int, ratio: int = 2) -> CoinSystem:
    if m < 1 or ratio < 2:
        raise ValueError("need m >= 1 and ratio >= 2")
    return new_coin_system(ratio**i for i in range(m))


def fibonacci_system(m: int) -> CoinSystem:
    """1, 2, 3, 5, 8, ... - the duplicate leading 1 is dropped to keep the
    denominations strictly increasing."""
    if m < 1:
        raise ValueError("need m >= 1")
    values = []
    a, b = 1, 2
    for _ in range(m):
        values.append(a)
        a, b = b, a + b
    return new_coin_system(values)


def family(kind: str, m: int, step: int = 1, ratio: int = 2) -> CoinSystem:
    """Dispatch by family name: arithmetic, geometric, or fibonacci."""
    if kind == "arithmetic":
        return arithmetic_system(m, step)
    if kind == "geometric":
        return geometric_system(m, ratio)
    if kind == "fibonacci":
        return fibonacci_system(m)
    raise ValueError(f"unknown family {kind!r}")


def enumerate_all(m: int, cmax: int) -> Iterator[CoinSystem]:
    """Every system with m denominations and largest value <= cmax, in
    lexicographic order. There are C(cmax-1, m-1) of them."""
    if m < 1 or cmax < m:
        raise ValueError("need m >= 1 and cmax >= m")
    for rest in combinations(range(2, cmax + 1), m - 1):
        yield CoinSystem((1,) + rest)


def random_system(m: int, cmax: int, seed: int) -> CoinSystem:
    """Uniform over all systems with m denominations and largest <= cmax;
    deterministic for a given seed."""
    if m < 1 or cmax < m:
        raise ValueError("need m >= 1 and cmax >= m")
    rest = Random(seed).sample(range(2, cmax + 1), m - 1)
    return CoinSystem((1,) + tuple(sorted(rest)))


def _first_tight(
    draws: Iterable[Optional[tuple[int, ...]]],
    target_count: int,
    budget: Optional[int],
    noun: str,
    where: str,
) -> list[tuple[CoinSystem, Verdict]]:
    """The first ``target_count`` distinct tight systems among ``draws``, each
    annotated with its oracle verdict. A None draw is rejected but still
    counts as an attempt; running out of draws raises ``BudgetExhausted``."""
    if target_count < 1:
        raise ValueError("target_count must be at least 1")
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[CoinSystem, Verdict]] = []
    attempts = 0
    for attempts, denoms in enumerate(draws, 1):
        if denoms is None or denoms in seen:
            continue
        seen.add(denoms)
        hit, _, _ = _scan(denoms, 1, denoms[-1], budget)
        if hit is not None:  # a counterexample below the top coin: not tight
            continue
        system = CoinSystem(denoms)
        out.append((system, is_canonical_oracle(system, budget)))
        if len(out) == target_count:
            return out
    raise BudgetExhausted(
        f"found {len(out)} {noun} of {target_count} wanted "
        f"within {attempts} attempts ({where})"
    )


def tight_corpus(
    m: int,
    cmax: int,
    seed: int,
    target_count: int,
    max_attempts: Optional[int] = None,
    budget: Optional[int] = None,
) -> list[tuple[CoinSystem, Verdict]]:
    """Distinct random systems that pass the tightness filter, each annotated
    with its oracle verdict."""
    if max_attempts is None:
        max_attempts = 2_000 * target_count
    rng = Random(seed)
    population = range(2, cmax + 1)
    draws = ((1,) + tuple(sorted(rng.sample(population, m - 1))) for _ in range(max_attempts))
    return _first_tight(draws, target_count, budget, "tight systems", f"m={m}, cmax={cmax}")


def near_arithmetic_corpus(
    m: int, cmax: int, seed: int, target_count: int
) -> list[tuple[CoinSystem, Verdict]]:
    """Tight systems mutated from dense runs: 1..T with a few interior values
    deleted and a stretched top gap.

    Uniform random sampling essentially never produces this shape, yet it is
    exactly where the quadratic pair scan needs more than a couple of steps
    and where the gap/pair-sum structure results have non-vacuous hypotheses,
    so sweeps draw these in addition to uniform corpora.
    """
    if m < 5 or cmax < m + 2:
        raise ValueError("need m >= 5 and cmax >= m + 2")
    rng = Random(seed)
    run_hi = min(cmax - 2, 4 * m)

    def draw() -> Optional[tuple[int, ...]]:
        run_end = rng.randint(m - 1, run_hi)
        holes = run_end - m + 1  # run length minus kept coins, top added back
        if holes > max(0, run_end - 4):
            return None
        removed = set(rng.sample(range(3, run_end), holes)) if holes else set()
        top = run_end + rng.randint(2, max(3, run_end // 2))
        if top > cmax:
            return None
        return tuple(v for v in range(1, run_end + 1) if v not in removed) + (top,)

    draws = (draw() for _ in range(4_000 * target_count))
    return _first_tight(
        draws, target_count, None, "tight near-arithmetic systems", f"m={m}, cmax={cmax}"
    )


def format_corpus_line(
    system: CoinSystem, annotations: Optional[Mapping[str, object]] = None
) -> str:
    line = str(system)
    if annotations:
        tail = " ".join(f"{k}={v}" for k, v in annotations.items())
        line = f"{line} # {tail}"
    return line


def annotate(system: CoinSystem, verdict: Verdict, tight: bool) -> dict[str, object]:
    ann: dict[str, object] = {
        "tight": int(tight),
        "canonical": int(verdict.canonical),
    }
    if verdict.witness is not None:
        ann["x"] = verdict.witness.x
    return ann


def parse_coins(text: str) -> CoinSystem:
    """Comma-separated decimal denominations, ASCII digits only; whitespace
    around each is tolerated, empty fields are not."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InvalidSystem("no denominations given")
    if "" in parts:
        raise InvalidSystem(f"empty denomination field in {text!r}")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise InvalidSystem(f"denominations must be decimal integers: {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:  # more digits than int() converts
        raise InvalidSystem(f"a denomination in {text!r} has too many digits") from None
    duplicates = sorted(v for v, k in Counter(values).items() if k > 1)
    if duplicates:
        raise InvalidSystem(f"duplicate denomination(s): {duplicates}")
    return new_coin_system(values)


def parse_corpus_line(line: str) -> Optional[tuple[CoinSystem, dict[str, str]]]:
    """Parse one corpus line; returns None for blank lines and comments."""
    body, _, tail = line.partition("#")
    body = body.strip()
    if not body:
        return None
    system = parse_coins(body)
    ann: dict[str, str] = {}
    for item in tail.split():
        key, _, value = item.partition("=")
        ann[key] = value
    return system, ann


def read_corpus(lines: Iterable[str]) -> Iterator[tuple[CoinSystem, dict[str, str]]]:
    for line in lines:
        parsed = parse_corpus_line(line)
        if parsed is not None:
            yield parsed
