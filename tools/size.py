"""Print two size figures of the library: its line count and its settable values.

    python3 tools/size.py

The first line is the number of lines in ``src/coincanon/*.py``. The second
is the number of settable values: every parameter with a default, in every
function and method under ``src/coincanon``, plus every ``add_argument`` call
in ``cli.py``. Then comes one ``<module> <lines>`` line per file, so a change
that moves code between modules shows where the lines went. Only the standard library's ``ast`` module is used, so the
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
    per_module: dict[str, int] = {}
    settable = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        per_module[path.stem] = len(text.splitlines())
        tree = ast.parse(text, filename=str(path))
        settable += defaulted_parameters(tree)
        if path.name == "cli.py":
            settable += add_argument_calls(tree)
    print(sum(per_module.values()))
    print(settable)
    for module, lines in per_module.items():
        print(module, lines)


if __name__ == "__main__":
    main()
