"""Command-line front end.

Exit codes: 0 = canonical verdict / tight / all predicates hold; 1 = a
non-canonical verdict, non-tight system, or predicate failure; 2 = usage or
validation error; 3 = a resource limit was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Optional

from .core import BudgetExhausted, CoinSystem, Counterexample, LimitExceeded, Verdict
from .bench import scaling_run
from .fastcheck import METHODS, TIGHT_METHODS
from .generate import (
    annotate,
    enumerate_all,
    family,
    format_corpus_line,
    parse_coins,
    random_system,
    read_corpus,
    tight_corpus,
)
from .oracle import is_tight, smallest_counterexample
from .sweeps import PREDICATE_NAMES, predicate_sweep

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _witness_json(witness: Optional[Counterexample]) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "x": witness.x,
        "greedy_counts": list(witness.greedy.counts),
        "greedy_size": witness.greedy.size,
        "optimal_counts": list(witness.optimal.counts),
        "optimal_size": witness.optimal.size,
    }


def _witness_text(witness: Counterexample) -> str:
    return (
        f"{witness.x}: greedy ({','.join(map(str, witness.greedy.counts))}) "
        f"size {witness.greedy.size}, "
        f"optimal ({','.join(map(str, witness.optimal.counts))}) "
        f"size {witness.optimal.size}"
    )


def _emit(args, system: CoinSystem, method: str, decide: Callable[[], Verdict],
          words: tuple[str, str], negative: str) -> int:
    """Time ``decide()`` and print its verdict: ``words`` name the positive
    and the negative verdict, and ``negative`` is the text line of a witness,
    with ``{}`` where the witness goes."""
    t0 = time.perf_counter_ns()
    verdict = decide()
    elapsed = time.perf_counter_ns() - t0
    word = words[0] if verdict.canonical else words[1]
    if args.json:
        print(json.dumps({
            "system": list(system.denoms),
            "verdict": word,
            "witness": _witness_json(verdict.witness),
            "method": method,
            "elapsed_ns": elapsed,
        }))
    elif verdict.canonical:
        print(word)
    else:
        print(negative.format(_witness_text(verdict.witness)))
    return EXIT_OK if verdict.canonical else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    system = parse_coins(args.coins)
    method = args.method
    budget = args.dp_budget
    if method in TIGHT_METHODS:
        if system.m < 6:
            print(f"error: {method} needs at least 6 denominations", file=sys.stderr)
            return EXIT_USAGE
        if not args.skip_tight_check:
            tight, cex = is_tight(system, budget)
            if not tight:
                print(
                    f"error: {method} requires a tight system, but {cex.x} is a "
                    f"counterexample below {system.largest} "
                    f"(use --skip-tight-check to bypass)",
                    file=sys.stderr,
                )
                return EXIT_USAGE
    return _emit(args, system, method, lambda: METHODS[method](system, budget),
                 ("canonical", "non-canonical"), "non-canonical; counterexample {}")


def _cmd_witness(args) -> int:
    system = parse_coins(args.coins)
    return _emit(args, system, "oracle",
                 lambda: Verdict(smallest_counterexample(system, args.dp_budget)),
                 ("canonical", "non-canonical"), "non-canonical; smallest counterexample {}")


def _cmd_tight(args) -> int:
    system = parse_coins(args.coins)
    return _emit(args, system, "oracle", lambda: Verdict(is_tight(system, args.dp_budget)[1]),
                 ("tight", "not-tight"),
                 f"not tight; counterexample {{}} (below {system.largest})")


def _corpus_out(args, lines) -> int:
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_gen(args) -> int:
    budget = args.dp_budget
    if args.random and args.tight:  # annotated by the tightness-filtered generator
        entries = (
            (s, annotate(s, v, tight=True))
            for s, v in tight_corpus(args.m, args.cmax, args.seed, args.count, budget=budget)
        )
    else:
        if args.family:
            systems = [family(args.family, args.m, step=args.step, ratio=args.ratio)]
        elif args.enumerate:
            systems = enumerate_all(args.m, args.cmax)
        else:  # --random
            systems = (random_system(args.m, args.cmax, args.seed + i) for i in range(args.count))
        if args.tight:
            systems = (s for s in systems if is_tight(s, budget)[0])
        entries = ((s, {}) for s in systems)
    if args.json:
        lines = (json.dumps({"system": list(s.denoms), **ann}) for s, ann in entries)
    else:
        lines = (format_corpus_line(s, ann) for s, ann in entries)
    return _corpus_out(args, lines)


def _cmd_verify(args) -> int:
    names = PREDICATE_NAMES if args.predicate == "all" else (args.predicate,)
    if args.corpus == "-":
        systems = [s for s, _ in read_corpus(sys.stdin)]
    else:
        with open(args.corpus) as fh:
            systems = [s for s, _ in read_corpus(fh)]
    report = predicate_sweep(systems, names, budget=args.dp_budget)
    counts = {
        name: {
            "holds": report.holds.get(name, 0),
            "fails": report.fails.get(name, 0),
            "not_applicable": report.not_applicable.get(name, 0),
        }
        for name in names
    }
    if args.json:
        print(json.dumps({
            "total": report.total,
            "predicates": counts,
            "failures": [
                {"system": list(s.denoms), "predicate": n, "detail": d}
                for s, n, d in report.failures
            ],
        }))
    else:
        print(f"systems: {report.total}")
        for name, tally in counts.items():
            print(f"{name}: " + " ".join(f"{k.replace('_', '-')}={v}" for k, v in tally.items()))
        for system, name, detail in report.failures:
            print(f"FAIL {name} on {system}: {detail}")
    return EXIT_OK if report.clean else EXIT_NEGATIVE


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = scaling_run(methods, sizes, trials=args.trials)
    if args.json:
        print(json.dumps([row.__dict__ for row in rows]))
    else:
        print("method,m,c_max,trial,elapsed_ns,verdict")
        for r in rows:
            print(f"{r.method},{r.m},{r.c_max},{r.trial},{r.elapsed_ns},{r.verdict}")
    return EXIT_OK


def _positive(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincanon",
        description="Decide whether coin systems are canonical (greedy = optimal) "
                    "and explore the structure behind the fast checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide canonicity of one system")
    p.add_argument("coins", help="comma-separated denominations, e.g. 1,5,10,25")
    p.add_argument("--method", default="auto", choices=list(METHODS),
                   help="auto uses the arity-specific checks up to 5 coins, "
                        "then Pearson's scan")
    p.add_argument("--skip-tight-check", action="store_true",
                   help="skip the tightness verification before tight-* methods")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("witness", help="smallest counterexample of one system")
    p.add_argument("coins")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("tight", help="does the system lack counterexamples below its top coin?")
    p.add_argument("coins")
    p.set_defaults(func=_cmd_tight)

    p = sub.add_parser("gen", help="emit corpus lines")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--family", choices=["arithmetic", "geometric", "fibonacci"])
    mode.add_argument("--random", action="store_true")
    mode.add_argument("--enumerate", action="store_true")
    p.add_argument("--m", type=int, required=True, help="number of denominations")
    p.add_argument("--step", type=int, default=1, help="arithmetic step")
    p.add_argument("--ratio", type=int, default=2, help="geometric ratio")
    p.add_argument("--cmax", type=int, default=100, help="largest allowed denomination")
    p.add_argument("--count", type=_positive, default=1, help="number of random systems")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tight", action="store_true",
                   help="keep only tight systems (annotated for --random)")
    p.add_argument("--out", default="-", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run predicate sweeps over a corpus file")
    p.add_argument("--corpus", required=True, help="corpus file, or - for stdin")
    p.add_argument("--predicate", default="all",
                   choices=list(PREDICATE_NAMES) + ["all"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time checkers on arithmetic families, CSV output")
    p.add_argument("--methods", default="pearson,tight-extended",
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--sizes", required=True, help="comma-separated system sizes")
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    for name, p in sub.choices.items():
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        if name != "bench":  # bench times fixed inputs at the default budget
            p.add_argument("--dp-budget", type=_positive, default=None, metavar="N",
                           help="cap on table entries for scans (default 2**28)")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (LimitExceeded, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # InvalidSystem and the like are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
