"""Print two size figures of the library: its line count and its settable values.

    python3 tools/size.py

The first line is the number of lines in ``src/coincanon/*.py``. The second
is the number of settable values: every parameter with a default, in every
function and method under ``src/coincanon``, plus every ``add_argument`` call
in ``cli.py``. Only the standard library's ``ast`` module is used, so the
figures do not depend on importing the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coincanon"


def defaulted_parameters(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
    return count


def add_argument_calls(tree: ast.AST) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for node in ast.walk(tree)
    )


def main() -> None:
    lines = settable = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        tree = ast.parse(text, filename=str(path))
        settable += defaulted_parameters(tree)
        if path.name == "cli.py":
            settable += add_argument_calls(tree)
    print(lines)
    print(settable)


if __name__ == "__main__":
    main()
