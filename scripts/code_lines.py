"""Count the code lines of the library: lines that hold code, with blank
lines, comments and docstrings not counted.

Prints one line per module of `src/eqyamabe`, the total over the four series
modules (`numerics`, `orbifold`, `bundle`, `conformal`) and the total over
the package.  A line counts when it holds a token other than a comment and
does not lie in a docstring, the string that opens a module, class or
function body.

    python scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqyamabe"
SERIES = ("numerics", "orbifold", "bundle", "conformal")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<10} {count:5d}")
    print(f"{'series':<10} {sum(counts[name] for name in SERIES):5d}  ({', '.join(SERIES)})")
    print(f"{'total':<10} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
