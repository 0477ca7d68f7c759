#!/usr/bin/env python3
"""Count the code lines of ``src/rosenpencil`` in two checkouts, module by module.

    python3 tools/src_lines.py PARENT CHANGE

A code line is a physical line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function body) do not count, so deleting or adding prose
moves no figure.  A line inside a multi-line string that is not a
docstring counts.  Prints, per module of either side, the parent's count,
the change's and the difference, then the totals, the code lines and the
physical lines alike.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _PROSE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def count(root: Path) -> dict[str, tuple[int, int]]:
    """Per module of ``root/src/rosenpencil``: (code lines, physical lines)."""
    out = {}
    for path in sorted((root / "src" / "rosenpencil").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        out[path.name] = (code_lines(text), len(text.splitlines()))
    return out


def table(parent: dict, change: dict) -> list[str]:
    """The printed lines: one per module of either side, then the totals of code lines and of physical lines."""
    rows = [f"{'module':<20}{'parent':>8}{'change':>8}{'diff':>8}"]
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, (0, 0))[0], change.get(name, (0, 0))[0]
        rows.append(f"{name:<20}{a:>8}{b:>8}{b - a:>+8}")
    for label, k in (("code lines", 0), ("physical lines", 1)):
        a, b = sum(x[k] for x in parent.values()), sum(x[k] for x in change.values())
        rows.append(f"{label:<20}{a:>8}{b:>8}{b - a:>+8}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="src_lines.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    for line in table(count(args.parent), count(args.change)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
