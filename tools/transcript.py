"""Print a transcript of the command-line contract: a fixed list of commands,
each with its exit code, stdout and stderr.

    python3 tools/transcript.py > transcript.txt

Every command runs in this process through ``coincanon.cli.run``, imported
from this checkout's ``src/``. Timings (``elapsed_ns``) are masked, so the
transcripts of two checkouts differ only where the CLI's behaviour does:
diff them to check a change against its parent. Only the standard library
is used.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coincanon.cli import run  # noqa: E402

CORPUS = "CORPUS"  # stands for a corpus file the transcript writes first
PAIR = "1,2,3,4,3000000000,4000000000"
DEEP = "1,1000,300001"  # witness: 301 copies of 1000
STEP1 = ",".join(map(str, (1, *range(3, 67))))  # 1,3,4,...,66: a non-canonical 1,3,4 prefix
TIGHT_METHODS = ("tight-verbatim", "tight-extended")

COMMANDS: list[list[str]] = [
    # check: every method, verdicts and witnesses
    *(["check", coins, "--method", method, *json]
      for method in ("auto", "oracle", "pearson")
      for coins in ("1,5,10,25", "1,7,10,11", "1,2,5,6,11", "1,2,4,6,8,9")
      for json in ([], ["--json"])),
    *(["check", coins, "--method", method, *json]
      for method in TIGHT_METHODS
      for coins in ("1,2,3,4,5,6,7", "1,2,4,6,8,9", "1,5,10,25,50,100,220")
      for json in ([], ["--json"])),
    ["check", "1"],
    ["check", "1,2"],
    ["check", "1,3,4"],
    ["check", "1,2,4,5,300000000", "--json"],
    ["check", "1,2,300000001,400000000", "--json"],
    ["check", "1,3000000000,4000000000", "--json"],
    ["check", DEEP, "--method", "pearson", "--json"],
    ["check", "1,103,9891,20000", "--json"],  # witness 9991: 97 copies of 103
    ["check", STEP1, "--method", "tight-extended", "--json"],
    # check: witnesses above the table budget, and resource limits
    *(["check", PAIR, "--method", method, "--skip-tight-check", "--json"]
      for method in TIGHT_METHODS),
    ["check", "1,2,3,4,5,3000000000,4000000000"],
    ["check", "1,3,4,5000000000"],
    ["check", "1,3,4,10,5000000000"],
    ["check", "1,7,10,50000", "--method", "oracle", "--dp-budget", "100"],
    # check: tightness and arity of the tight methods, and usage errors
    ["check", "1,7,10,50,60,70", "--method", "tight-extended"],
    ["check", "1,7,10,50,60,70", "--method", "tight-extended", "--skip-tight-check"],
    ["check", "1,3,4", "--method", "tight-verbatim"],
    ["check", "5,10"],
    ["check", "1,5,5"],
    ["check", "1,,5"],
    ["check", "abc"],
    ["check", "1,5,10", "--dp-budget", "0"],
    ["check", "1,5,10", "--method", "warp"],
    # witness and tight
    ["witness", "1,7,10,11"],
    ["witness", "1,7,10,11", "--json"],
    ["witness", DEEP, "--json"],
    ["witness", "1,5,10,25"],
    ["witness", "1,2", "--dp-budget", "1"],
    ["tight", "1,7,10,11"],
    ["tight", "1,7,10,11", "--json"],
    ["tight", "1,7,10,50"],
    ["tight", "1,7,10,50", "--json"],
    # gen: every mode, with and without --tight and --json
    ["gen", "--family", "arithmetic", "--m", "5", "--step", "3"],
    ["gen", "--family", "geometric", "--m", "4", "--ratio", "3", "--json"],
    ["gen", "--family", "fibonacci", "--m", "7", "--tight"],
    ["gen", "--enumerate", "--m", "4", "--cmax", "7"],
    ["gen", "--enumerate", "--m", "4", "--cmax", "7", "--tight", "--json"],
    ["gen", "--random", "--m", "5", "--cmax", "40", "--count", "4", "--seed", "9"],
    ["gen", "--random", "--m", "5", "--cmax", "40", "--count", "4", "--seed", "9", "--json"],
    ["gen", "--random", "--m", "5", "--cmax", "40", "--count", "4", "--seed", "9", "--tight"],
    ["gen", "--random", "--m", "5", "--cmax", "40", "--count", "4", "--seed", "9", "--tight",
     "--json"],
    *(["gen", "--random", "--m", "5", "--cmax", "40", "--count", count, *tight]
      for count in ("0", "-1") for tight in ([], ["--tight"])),
    ["gen", "--random", "--m", "4", "--cmax", "5", "--count", "5", "--tight"],  # exhausted
    # verify on a generated corpus
    ["gen", "--enumerate", "--m", "5", "--cmax", "14", "--out", CORPUS],
    ["verify", "--corpus", CORPUS],
    ["verify", "--corpus", CORPUS, "--json"],
    ["verify", "--corpus", CORPUS, "--predicate", "thm3", "--json"],
    ["gen", "--family", "arithmetic", "--m", "2", "--step", "19", "--out", CORPUS],
    ["verify", "--corpus", CORPUS, "--dp-budget", "10"],
    ["bench", "--help"],
]


def transcribe(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    stdout = re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', out.getvalue())
    return f"exit {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = str(Path(tmp) / "corpus.txt")
        for argv in COMMANDS:
            print("$ coincanon " + " ".join(argv))
            print(transcribe([corpus if a == CORPUS else a for a in argv]))


if __name__ == "__main__":
    main()
