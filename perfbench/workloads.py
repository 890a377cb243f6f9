"""The benchmark's workloads: seeded inputs, one round of timed operations,
and the checks of the library's outputs against ``refcheck``.

A round is the same list of operations every time, so every run attempts
whole rounds and the share of failed operations is the same in every run,
whatever the seed and the run length.

The decide workloads make their inputs here, as plain tuples, from the
seed. Their costs are set by the shape of each input: the magnitudes (top
coin, planted counterexample, number of coins) lie on fixed grids with at
most 1% jitter, and the seed draws the rest of each system. So the seed
changes the systems but hardly the cost of each operation, and the
percentiles repeat from seed to seed.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Callable, Optional

import refcheck


class Op:
    """One timed call into the library and what its outcome must be."""

    __slots__ = ("stratum", "denoms", "fn", "systems", "expect", "fault")

    def __init__(self, stratum: str, denoms: tuple[int, ...], fn: Callable[[], object],
                 systems: float = 1.0, expect: Optional[dict] = None,
                 fault: Optional[str] = None):
        self.stratum = stratum
        self.denoms = denoms
        self.fn = fn
        self.systems = systems  # systems this op completes
        self.expect = expect if expect is not None else {}
        self.fault = fault  # "a" or "b": fails with LimitExceeded today


def grid(lo: float, hi: float, n: int, i: int) -> float:
    """The i-th of n log-spaced points from lo to hi."""
    return lo * (hi / lo) ** (i / (n - 1))


def jitter(rng: random.Random, v: float) -> int:
    return int(v * (1 + 0.01 * (rng.random() - 0.5)))


def auto_decide(cc, denoms: tuple[int, ...]):
    """``coincanon check --method auto`` without the argument parsing."""
    system = cc.CoinSystem(denoms)
    m = system.m
    if m <= 2:
        return cc.Verdict()
    if m == 3:
        return cc.check_three(system)
    if m == 4:
        return cc.check_four(system)
    if m == 5:
        return cc.check_five(system)
    return cc.pearson_check(system)


class NotTight(Exception):
    pass


def tight_decide(cc, denoms: tuple[int, ...]):
    """``coincanon check --method tight-extended``: tightness first."""
    system = cc.CoinSystem(denoms)
    tight, cex = cc.is_tight(system)
    if not tight:
        raise NotTight(f"{cex.x} is a counterexample below the top coin")
    return cc.is_canonical_tight_extended(system).verdict


# ---------------------------------------------------------------------------
# decide workloads

# Faults kept on purpose: each fails with LimitExceeded on every run.
# (a) the smallest counterexample is above the DP budget, and the witness is
#     built by optimal(), which refuses the table (Pearson finds 6e9).
# (b) a non-canonical 1,3,4 prefix with a top coin above the budget:
#     propagation_witness guards a scan to c_m + c3, although the smallest
#     counterexample is 6.
FAULT_A = ((1, 2, 3, 4, 5, 3_000_000_000, 4_000_000_000),
           (1, 2, 4, 8, 16, 32, 3_000_000_000, 4_000_000_000))
FAULT_B = ((1, 3, 4, 5_000_000_000),
           (1, 3, 4, 10, 5_000_000_000))


def planted_three(rng: random.Random, target: int) -> tuple[int, int, int]:
    """(c2, c3, x): a non-canonical three-coin system whose smallest
    counterexample x = (q+1)*c2 lies within 1% of target. c2 stays within
    a quarter above sqrt(target), so the DP's values, and its cost, hardly
    depend on the seed."""
    lo = math.isqrt(target) + 3
    while True:
        c2 = rng.randint(lo, lo + lo // 4)
        q = round(target / c2) - 1
        if 1 <= q <= c2 - 3:
            r = rng.randint(1, c2 - q - 1)
            return c2, q * c2 + r, (q + 1) * c2


def canonical_three(rng: random.Random) -> tuple[int, int]:
    while True:
        c2 = rng.randint(2, 30)
        c3 = rng.randint(c2 + 1, 40)
        if refcheck.three_coin_counterexample(c2, c3) is None:
            return c2, c3


def big_coin_ops(cc, seed: int) -> list[Op]:
    """94 ops per round, in a fixed order.

    The costs are laid out so that each percentile lands inside a block of
    ops of equal cost: of the 90 ops that complete, 36 cost under 0.6 ms
    (canonical, window), the median falls among the 20 prefix-pearson ops
    (a DP to x of about 8000, 1 ms), and the 95th percentile among the
    eight three-coin ops with a top coin of 150,000 (about 70 ms).
    """
    rng = random.Random(f"decide-big-coins/{seed}")
    ops: list[Op] = []

    def add(stratum, denoms, **kw):
        ops.append(Op(stratum, denoms, lambda d=denoms: auto_decide(cc, d), **kw))

    def prefix(stratum, m, target):
        # A non-canonical three-coin prefix with smallest counterexample x,
        # and every later coin above x: x is the smallest counterexample of
        # the whole system.
        c2, c3, x = planted_three(rng, jitter(rng, target))
        rest = sorted(rng.sample(range(x + 1, 4 * x), m - 3))
        add(stratum, (1, c2, c3, *rest), expect={"x": x, "size": x // c2})

    # Built canonical: every coin a multiple of the one before. Above any
    # reference window; the verdict must be canonical.
    for i in range(12):
        m = 3 + i % 6
        step = int(10 ** (15 / (m - 1)))
        d = [1]
        for _ in range(m - 1):
            d.append(d[-1] * rng.randint(2, step))
        add("canonical", tuple(d), expect={"canonical": True})

    # Small random systems, decided against the reference. Top coins stay
    # below 1000, so each op is cheaper than any planted one and the seed
    # cannot move the percentiles through them.
    for i in range(24):
        m = 3 + i % 6
        top = rng.randint(300, 1000)
        d = (1,) + tuple(sorted(rng.sample(range(2, top), m - 2))) + (top,)
        add("window", d)

    # m = 6..8: Pearson's scan, then a DP witness to x.
    for i in range(20):
        prefix("prefix-pearson", 6 + i % 3, 8_000)

    # m = 4, 5: the propagation scan up to x, then a DP witness to x.
    for i in range(16):
        prefix("prefix-propagation", 4 + i % 2, grid(10_000, 50_000, 16, i))

    # Five coins: canonical three-coin prefix, non-canonical four-coin
    # prefix, top coin above the four-coin window. check_five falls back to
    # the oracle's window scan, whose arrays reach c4 + c5.
    for i in range(6):
        while True:
            c2, c3 = canonical_three(rng)
            c4 = rng.randint(c3 + 1, 8 * c3)
            k = c4 // c3
            if c4 % c3 and refcheck.greedy_size((1, c2, c3, c4), (k + 1) * c3) > k + 1:
                break
        c5 = jitter(rng, grid(200_000, 800_000, 6, i))
        add("fallback", (1, c2, c3, c4, c5), expect={"prefix_reference": 4})

    # Three coins, non-canonical: check_three's window scan and the DP
    # witness both run to x, just above the top coin.
    for target in (10_000, 30_000) + (150_000,) * 8 + (600_000,) * 2:
        c2, c3, x = planted_three(rng, jitter(rng, target))
        add("three", (1, c2, c3), expect={"x": x, "size": x // c2})

    for d in FAULT_A:
        add("fault-a", d, fault="a")
    for d in FAULT_B:
        add("fault-b", d, fault="b")
    return ops


def near_arithmetic(rng: random.Random, m: int) -> tuple[int, ...]:
    """1..T with m//6 holes and a top coin T + g.

    Tight by construction: holes are never adjacent and all lie at or above
    max(3, g), so every amount below the top coin has a greedy count of at
    most 2 (a hole h is (h-1) + 1; T < x < T + g is T + (x - T)).
    """
    h = m // 6
    t = m - 1 + h
    g = max(2, t // 3)
    lo = max(3, g)
    picks = sorted(rng.sample(range(lo, t - h + 1), h))
    holes = {p + j for j, p in enumerate(picks)}
    return tuple(v for v in range(1, t + 1) if v not in holes) + (t + g,)


def many_coin_ops(cc, seed: int) -> list[Op]:
    """48 tight systems with 16..256 coins (fixed log grid), each decided by
    the auto dispatch (Pearson) and by the tight-extended path."""
    rng = random.Random(f"decide-many-coins/{seed}")
    ops: list[Op] = []
    for i in range(48):
        m = round(grid(16, 256, 48, i))
        kind = i % 3
        if kind == 0:
            step = 2 + (i // 3) % 3
            d, stratum = tuple(1 + j * step for j in range(m)), f"arithmetic-{step}"
        elif kind == 1:
            d, stratum = near_arithmetic(rng, m), "near-arithmetic"
        else:
            d, stratum = tuple(range(1, m + 1)), "1..m"
        expect = {"tight": True}
        ops.append(Op(stratum, d, lambda d=d: auto_decide(cc, d), 0.5, expect))
        ops.append(Op(stratum + "/tight", d, lambda d=d: tight_decide(cc, d), 0.5, expect))
    return ops


class Expect:
    """What one op must return, from the reference or from construction.

    ``x`` is the smallest counterexample (None when canonical), ``report``
    the witness amount the method reports, and ``size(v)`` the minimal coin
    count of an amount v the witness may have.
    """

    __slots__ = ("x", "report", "opt", "planted_size", "tight")

    def __init__(self, op: Op):
        d, e = op.denoms, op.expect
        self.opt: Optional[list[int]] = None
        self.planted_size: Optional[int] = e.get("size")
        self.tight: Optional[bool] = None
        if e.get("canonical"):
            self.x = None
        elif "x" in e:
            self.x = e["x"]
        elif "prefix_reference" in e:
            k = e["prefix_reference"]
            self.x = refcheck.smallest_counterexample(d[:k])
            if self.x is None or self.x >= d[k]:
                raise ValueError(f"{d}: prefix counterexample {self.x} is not below {d[k]}")
            self.opt = refcheck.sizes(d[:k], self.x)[1]
        else:
            self.opt = refcheck.sizes(d, refcheck.window(d))[1]
            self.x = refcheck.smallest_counterexample(d)
            if e.get("tight"):
                self.tight = self.x is None or self.x >= d[-1]
        self.report = self.x
        # check_four and check_five judge the top coin of a canonical prefix
        # by the one-point test and report its amount, which need not be the
        # smallest counterexample.
        if (self.x is not None and len(d) in (4, 5) and self.opt is not None
                and "prefix_reference" not in e
                and refcheck.smallest_counterexample(d[:-1]) is None):
            self.report = refcheck.one_point_amount(d)

    def size(self, v: int) -> Optional[int]:
        if self.opt is not None and v < len(self.opt):
            return self.opt[v]
        return self.planted_size if v == self.x else None


class DecideWorkload:
    """Each op is checked as soon as it returns, outside its timing, and its
    result is dropped: results kept across rounds would pin the memory of
    the DP tables they were built next to, and move ``peak_rss_mib``."""

    def __init__(self, cc, ops: list[Op]):
        self.cc = cc
        self.ops = ops
        self.expect: list[Optional[Expect]] = []
        self.errors: list[str] = []

    def warm_up(self) -> None:
        """One op of each stratum: the one with the smallest top coin."""
        cheapest: dict[str, Op] = {}
        for op in self.ops:
            if op.stratum not in cheapest or op.denoms[-1] < cheapest[op.stratum].denoms[-1]:
                cheapest[op.stratum] = op
        for op in cheapest.values():
            try:
                op.fn()
            except Exception:  # the planted faults; checked in the timed rounds
                pass

    def prepare(self) -> None:
        """Reference answers for every op, before the timed rounds."""
        known: dict[tuple[int, ...], Expect] = {}
        for op in self.ops:
            if not op.fault and op.denoms not in known:
                known[op.denoms] = Expect(op)
        self.expect = [None if op.fault else known[op.denoms] for op in self.ops]
        for op, exp in zip(self.ops, self.expect):
            if exp is not None and exp.tight is False:
                self.errors.append(f"{op.stratum} {op.denoms[:4]}...: generated system is not tight")

    def wrap(self, wrapper) -> None:
        for op in self.ops:
            op.fn = wrapper(op.fn)

    def run_round(self, clock, record) -> None:
        """Run every op once; ``record(ns, ok, systems)`` gets each latency."""
        limit_exc = self.cc.LimitExceeded
        previous = None
        for op, exp in zip(self.ops, self.expect):
            t0 = clock()
            try:
                out = op.fn()
                ok = True
            except Exception as exc:  # checked below against op.fault
                out, ok = exc, False
            record(clock() - t0, ok, op.systems if ok else 0)
            if op.fault:
                err = None if isinstance(out, limit_exc) else f"expected LimitExceeded, got {out!r}"
            else:
                err = check_verdict(op.denoms, out, exp, tight=op.stratum.endswith("/tight"))
            # decide-many-coins: the two paths of one system must agree.
            if err is None and op.stratum.endswith("/tight") and previous != out.canonical:
                err = f"tight-extended says canonical={out.canonical}, auto {previous}"
            if err is not None and len(self.errors) < 100:
                self.errors.append(f"{op.stratum} {','.join(map(str, op.denoms))}: {err}")
            previous = getattr(out, "canonical", None)

    def check(self) -> list[str]:
        return self.errors

    def makeup(self) -> list[str]:
        per_m: dict[int, int] = {}
        canonical = non_canonical = not_tight = 0
        faults = {"a": 0, "b": 0}
        systems = [(op, exp) for op, exp in zip(self.ops, self.expect)
                   if not op.stratum.endswith("/tight")]
        for op, exp in systems:
            d = op.denoms
            per_m[len(d)] = per_m.get(len(d), 0) + 1
            if op.fault:
                faults[op.fault] += 1
                non_canonical += 1
            elif exp.x is None:
                canonical += 1
            else:
                non_canonical += 1
                not_tight += exp.x < d[-1]
        strata: dict[str, int] = {}
        for op in self.ops:
            strata[op.stratum] = strata.get(op.stratum, 0) + 1
        n = len(systems)
        return [
            f"inputs: {n} systems, {len(self.ops)} ops per round",
            "systems per m: " + " ".join(f"{m}:{k}" for m, k in sorted(per_m.items())),
            "ops per stratum: " + " ".join(f"{s}:{k}" for s, k in sorted(strata.items())),
            f"canonical {canonical}, non-canonical {non_canonical}, "
            f"not tight {not_tight / n:.1%}",
            f"planted fault ops per round: (a) {faults['a']}, (b) {faults['b']}",
        ]


def check_verdict(d, out, exp: Expect, tight: bool = False) -> Optional[str]:
    """None when ``out`` is the right verdict with a valid witness."""
    if not hasattr(out, "canonical"):
        return f"raised {out!r}"
    if out.canonical != (exp.x is None):
        return f"verdict canonical={out.canonical}, reference x={exp.x}"
    if exp.x is None:
        return None
    w = out.witness
    if tight:
        # The pair scan reports some counterexample, not always the smallest.
        if not exp.x <= w.x < len(exp.opt):
            return f"tight witness {w.x} outside [{exp.x}, {len(exp.opt)})"
    elif w.x != exp.report:
        return f"witness {w.x}, expected {exp.report}"
    if tuple(w.greedy.counts) != refcheck.greedy_counts(d, w.x):
        return f"greedy counts {w.greedy.counts} differ from the reference"
    counts = tuple(w.optimal.counts)
    if len(counts) != len(d) or sum(k * c for k, c in zip(counts, d)) != w.x:
        return f"optimal counts {counts} do not sum to {w.x}"
    size = exp.size(w.x)
    if sum(counts) != size or size >= sum(w.greedy.counts):
        return f"optimal size {sum(counts)}, minimal {size}, greedy {sum(w.greedy.counts)}"
    return None


# ---------------------------------------------------------------------------
# sweep-exhaustive

SWEEP_M = 6
SWEEP_TOP = 26
SWEEP_TOTAL = math.comb(SWEEP_TOP - 1, SWEEP_M - 1)  # 53,130
SWEEP_CHUNK = 230  # divides SWEEP_TOTAL: 231 chunks per round
SWEEP_SAMPLE = 12  # chunks checked against the reference, chosen by seed


class SweepWorkload:
    """All six-coin systems with top coin <= 26, streamed from enumerate_all
    in fixed-size chunks; each chunk goes through predicate_sweep and
    pearson_equivalence_sweep."""

    def __init__(self, cc, seed: int):
        import coincanon.sweeps as sweeps
        self.cc = cc
        self.sweeps = sweeps
        self.names = tuple(sweeps.PREDICATE_NAMES)
        chunks = SWEEP_TOTAL // SWEEP_CHUNK
        self.sample = set(random.Random(f"sweep-exhaustive/{seed}").sample(range(chunks), SWEEP_SAMPLE))
        self.kept: dict[int, list[tuple[int, ...]]] = {}
        self.errors: list[str] = []
        self.rounds: list[list[tuple]] = []

    def chunk_op(self, stream):
        chunk = list(islice(stream, SWEEP_CHUNK))
        preds = self.sweeps.predicate_sweep(chunk)
        # One system per chunk also goes through pearson_check and its
        # witness: the default stride of 997 never fires within a chunk.
        equiv = self.sweeps.pearson_equivalence_sweep(chunk, full_check_stride=SWEEP_CHUNK)
        return chunk, preds, equiv

    def warm_up(self) -> None:
        self.chunk_op(self.cc.enumerate_all(SWEEP_M, SWEEP_TOP))

    def prepare(self) -> None:
        pass

    def wrap(self, wrapper) -> None:
        self.chunk_op = wrapper(self.chunk_op)

    def run_round(self, clock, record) -> None:
        stream = self.cc.enumerate_all(SWEEP_M, SWEEP_TOP)
        prev: tuple[int, ...] = ()
        summary = []
        total = 0
        index = 0
        while total < SWEEP_TOTAL:
            t0 = clock()
            try:
                chunk, preds, equiv = self.chunk_op(stream)
            except Exception as exc:
                record(clock() - t0, False, 0)
                self.errors.append(f"chunk {index}: raised {exc!r}")
                break
            record(clock() - t0, True, len(chunk))
            if not chunk:
                self.errors.append(f"chunk {index}: stream ended after {total} systems")
                break
            prev = self.check_chunk(index, chunk, preds, equiv, prev)
            summary.append((equiv.canonical, tuple(preds.holds.get(n, 0) for n in self.names)))
            if not self.rounds and index in self.sample:
                self.kept[index] = [s.denoms for s in chunk]
            total += len(chunk)
            index += 1
        if total != SWEEP_TOTAL or next(stream, None) is not None:
            self.errors.append(f"round streamed {total}+ systems, expected {SWEEP_TOTAL}")
        self.rounds.append(summary)

    def check_chunk(self, index, chunk, preds, equiv, prev):
        err = self.errors.append
        for s in chunk:
            d = s.denoms
            if not (len(d) == SWEEP_M and d[0] == 1 and d[-1] <= SWEEP_TOP and prev < d):
                err(f"chunk {index}: {d} breaks the unit-first lexicographic stream after {prev}")
                return d
            if any(a >= b for a, b in zip(d, d[1:])):
                err(f"chunk {index}: {d} is not strictly increasing")
            prev = d
        n = len(chunk)
        if not equiv.agree or equiv.total != n or equiv.canonical + equiv.non_canonical != n:
            err(f"chunk {index}: equivalence report {equiv}")
        if preds.total != n or preds.fails:
            err(f"chunk {index}: predicate failures {preds.failures[:3]}")
        for name in self.names:
            k = preds.holds.get(name, 0) + preds.fails.get(name, 0) + preds.not_applicable.get(name, 0)
            if k != n:
                err(f"chunk {index}: {name} outcomes sum to {k}, not {n}")
        return prev

    def check(self) -> list[str]:
        errors = list(self.errors)
        if any(r != self.rounds[0] for r in self.rounds[1:]):
            errors.append("rounds disagree on canonical or predicate counts")
        for index, denoms in sorted(self.kept.items()):
            want = sum(refcheck.smallest_counterexample(d) is None for d in denoms)
            got = self.rounds[0][index][0]
            if got != want:
                errors.append(f"chunk {index}: {got} canonical, reference {want}")
        return errors

    def makeup(self) -> list[str]:
        canonical = sum(c for c, _ in self.rounds[0]) if self.rounds else 0
        sample = [d for ds in self.kept.values() for d in ds]
        not_tight = sum(not refcheck.is_tight(d) for d in sample)
        return [
            f"inputs: {SWEEP_TOTAL} six-coin systems <= {SWEEP_TOP}, "
            f"{SWEEP_TOTAL // SWEEP_CHUNK} chunks of {SWEEP_CHUNK} per round",
            f"canonical {canonical}, non-canonical {SWEEP_TOTAL - canonical}",
            f"not tight {not_tight / max(1, len(sample)):.1%} "
            f"(reference, on the {len(self.kept)} sampled chunks)",
            f"sampled chunks: {sorted(self.kept)}",
        ]


WORKLOADS = ("sweep-exhaustive", "decide-big-coins", "decide-many-coins")


def build(cc, name: str, seed: int):
    if name == "sweep-exhaustive":
        return SweepWorkload(cc, seed)
    if name == "decide-big-coins":
        return DecideWorkload(cc, big_coin_ops(cc, seed))
    if name == "decide-many-coins":
        return DecideWorkload(cc, many_coin_ops(cc, seed))
    raise ValueError(f"unknown workload {name!r}")
