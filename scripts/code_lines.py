#!/usr/bin/env python3
"""Code lines per module: lines that hold a Python token, less docstrings.

Usage:
    python scripts/code_lines.py [PATH ...]   (default: src/seedgrade)

A line counts when `tokenize` finds a token on it other than a comment, a
line break, an indent or a dedent. A line of a module, class or function
docstring (found with `ast`) does not count. Blank lines and comment lines
never do. Prints one line per module, then the total.
"""

import argparse
import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count(paths) -> dict:
    """{module path: code lines} for every .py file under `paths`, sorted."""
    files = sorted(f for p in map(Path, paths) for f in ([p] if p.is_file() else p.rglob("*.py")))
    return {str(f): code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "seedgrade"
    ap.add_argument("paths", nargs="*", default=[str(default)])
    args = ap.parse_args(argv)
    counts = count(args.paths)
    for path, n in counts.items():
        print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
