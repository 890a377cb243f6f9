"""Run one workload of the coincanon benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-exhaustive --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
Each workload runs in this one single-threaded process; operations are
timed from outside the library. The run repeats whole rounds of the
workload's operations until ``--seconds`` have passed, then checks every
output against ``refcheck`` and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics. Set-up time is measured in
five separate probe processes (``--probe``), each timed from just before it
is started to its first timed op, and the median is reported.

``--trace 1`` runs half the time untraced and half with spans at the
library's module boundaries (see ``tracer.py``), and reports the per-layer
metrics per round plus the tracing overhead. The spans go to
``perfbench/results/``.

Exit codes: 0 when every output was right, 1 when a check failed, 2 when the
library cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "systems_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "generate.enumerate_s": "s",
    "core.construct_s": "s",
    "core.construct_calls": "count",
    "sweeps.self_s": "s",
    "predicates.self_s": "s",
    "oracle.scan_s": "s",
    "oracle.scan_calls": "count",
    "oracle.scan_amounts": "count",
    "oracle.max_scan_len": "count",
    "oracle.witness_s": "s",
    "oracle.limit_exceeded": "count",
    "solvers.dp_s": "s",
    "solvers.dp_entries": "count",
    "solvers.max_dp_len": "count",
    "solvers.limit_exceeded": "count",
    "characterize.self_s": "s",
    "fastcheck.pearson_s": "s",
    "fastcheck.pearson_calls": "count",
    "fastcheck.pearson_candidates": "count",
    "fastcheck.tight_s": "s",
    "fastcheck.tight_pairs": "count",
    "bench.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_pct": "%",
}
# per-layer time metric -> span name whose self time it is
SELF_TIME = {
    "generate.enumerate_s": "generate.enumerate",
    "core.construct_s": "core.construct",
    "sweeps.self_s": "sweeps",
    "predicates.self_s": "predicates",
    "oracle.scan_s": "oracle.scan",
    "oracle.witness_s": "oracle.witness",
    "solvers.dp_s": "solvers.dp",
    "characterize.self_s": "characterize",
    "fastcheck.pearson_s": "fastcheck.pearson",
    "fastcheck.tight_s": "fastcheck.tight",
    "bench.self_s": "bench.op",
}
CALLS = {
    "core.construct_calls": "core.construct",
    "fastcheck.pearson_calls": "fastcheck.pearson",
}


M_MMAP_THRESHOLD = -3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def fix_mmap_threshold() -> bool:
    """Serve every allocation above 128 KiB by its own mmap.

    glibc raises its mmap threshold each time such a block is freed, after
    which the DP tables and scan arrays come from the heap and stay resident
    in a pattern that depends on the order of the ops. A fixed threshold
    returns them to the system when freed, so peak_rss_mib is the largest
    working set of one op and repeats from run to run.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


def load_library():
    """Import coincanon from this checkout's src/, and from nowhere else."""
    if not (SRC / "coincanon" / "__init__.py").is_file():
        fail(f"no coincanon package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coincanon

    if Path(coincanon.__file__).resolve().parent != (SRC / "coincanon").resolve():
        fail(f"coincanon imported from {coincanon.__file__}, not {SRC}")
    return coincanon


def set_up(workload: str, seed: int):
    """Import the library, build the inputs, warm up: what setup_s covers."""
    if not fix_mmap_threshold():
        print("note: glibc mallopt unavailable; peak_rss_mib follows the default allocator",
              file=sys.stderr)
    wl = workloads.build(load_library(), workload, seed)
    wl.warm_up()
    return wl


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the point of its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"set-up probe exited with {done.returncode}")
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for both processes.
    return float(done.stdout.split()[-1]) - t0


class Recorder:
    """Latencies go to a flat array: a Python int kept per op would be
    allocated next to that op's DP table and pin its memory."""

    def __init__(self) -> None:
        self.latencies_ns = array("q")
        self.attempted = 0
        self.failed = 0
        self.systems = 0.0
        self.busy_ns = 0

    def __call__(self, ns: int, ok: bool, systems: float) -> None:
        self.attempted += 1
        self.busy_ns += ns
        if ok:
            self.latencies_ns.append(ns)
            self.systems += systems
        else:
            self.failed += 1

    @property
    def systems_per_s(self) -> float:
        return self.systems / (self.busy_ns / 1e9)


def run_rounds(wl, seconds: float, rec: Recorder) -> int:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = 0
    t_end = time.perf_counter() + seconds
    while True:
        wl.run_round(time.perf_counter_ns, rec)
        rounds += 1
        if time.perf_counter() >= t_end:
            return rounds


def end_to_end(args, wl) -> tuple[dict, int, int, list[str]]:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    rec = Recorder()
    rounds = run_rounds(wl, args.seconds, rec)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [ns / 1e6 for ns in rec.latencies_ns]
    n = len(lat_ms)
    p95 = statistics.quantiles(lat_ms, n=20, method="inclusive")[18] if n > 1 else lat_ms[0]
    values = {
        "setup_s": statistics.median(setups),
        "systems_per_s": rec.systems_per_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": p95,
        "peak_rss_mib": rss_mib,
    }
    notes = [
        f"rounds {rounds}, ops attempted {rec.attempted}, failed {rec.failed}, "
        f"op time {rec.busy_ns / 1e9:.3f} s",
        "setup_s samples: " + " ".join(f"{v:.4f}" for v in setups),
        f"op_p50_ms and op_p95_ms over {n} completed ops "
        f"({sum(v > p95 for v in lat_ms)} beyond p95)",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, rec.attempted, rec.failed, notes


def traced(args, wl) -> tuple[dict, int, int, list[str]]:
    import tracer as tracing

    half = args.seconds / 2
    plain = Recorder()
    run_rounds(wl, half, plain)
    tr = tracing.Tracer()
    tr.install()
    wl.wrap(lambda fn: tr.span(fn, tracing.ROOT))
    rec = Recorder()
    try:
        rounds = run_rounds(wl, half, rec)
    finally:
        tr.uninstall()
    self_ns, total_ns, calls = tr.summary()
    values: dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        values[metric] = self_ns.get(span, 0) / 1e9 / rounds
    counts = {metric: calls.get(span, 0) for metric, span in CALLS.items()}
    counts.update(tr.counts)
    for key, v in counts.items():
        values[key] = v // rounds if v % rounds == 0 else v / rounds
    values.update(tr.maxes)
    values["trace.op_s"] = total_ns.get(tracing.ROOT, 0) / 1e9 / rounds
    values["trace.overhead_pct"] = 100 * (1 - rec.systems_per_s / plain.systems_per_s)
    for key in PER_LAYER:
        values.setdefault(key, 0)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tr.write(path)
    op_s = values["trace.op_s"]
    shares = sorted(((k, v / op_s) for k, v in values.items()
                     if k in SELF_TIME and v > 0), key=lambda kv: -kv[1])
    notes = [
        f"untraced: {plain.attempted} ops, {plain.systems_per_s:.1f} systems/s; "
        f"traced: {rounds} rounds, {rec.attempted} ops, {rec.systems_per_s:.1f} systems/s",
        "self-time share of traced op time: "
        + ", ".join(f"{k} {v:.1%}" for k, v in shares),
        f"{len(tr.start)} spans written to {path.relative_to(HERE.parent)}",
    ]
    if tr.missing:
        notes.append("not found, not traced: " + ", ".join(tr.missing))
    uneven = [k for k, v in counts.items() if v % rounds]
    if uneven:
        notes.append("counts differ between rounds: " + ", ".join(uneven))
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    return metrics, plain.attempted + rec.attempted, plain.failed + rec.failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    wl = set_up(args.workload, args.seed)
    if args.probe:
        print(time.perf_counter())
        return 0
    wl.prepare()
    metrics, attempted, failed, notes = (traced if args.trace else end_to_end)(args, wl)
    errors = wl.check()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + wl.makeup():
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
