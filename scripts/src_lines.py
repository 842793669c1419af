"""Count the code and docstring lines of each module of ``src/hyperhop``.

A code line is a line that is not blank, not a comment and not part of a
docstring (of a module, class or function). Prints one row per module, then
the totals. Run from anywhere:

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperhop"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The code lines and the docstring lines of one module's ``source``."""
    docstrings = docstring_lines(ast.parse(source))
    comments = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip()
    }
    code = sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and number not in comments and number not in docstrings
    )
    return code, len(docstrings)


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<24} {'code':>6} {'docstring':>10}")
    for path in sorted(PACKAGE.rglob("*.py")):
        code, docs = count(path.read_text(encoding="utf-8"))
        totals[0] += code
        totals[1] += docs
        print(f"{str(path.relative_to(PACKAGE)):<24} {code:>6} {docs:>10}")
    print(f"{'total':<24} {totals[0]:>6} {totals[1]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
