"""Count the code lines of a Python tree: no blanks, comments or docstrings.

A line counts when it carries at least one token that is not a comment
and is not part of a docstring (the leading string literal of a module,
class or function body).  Deleting comments or docstrings therefore
never shows up as simplification; only code that goes away does.

Usage::

    python benchmarks/code_size.py            # src/ of this checkout
    python benchmarks/code_size.py src/repro/net --files

Prints one summary line (code lines, physical lines, files); ``--files``
adds one row per file, largest first.  Only the standard library is
used (``tokenize`` for tokens, ``ast`` for docstring spans).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: Tokens that never make a line count as code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> Tuple[int, int]:
    """``(code_lines, physical_lines)`` of one module's source text."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(code), len(source.splitlines())


def python_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    for path in paths:
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def count_tree(paths: Iterable[Path]) -> Dict[Path, Tuple[int, int]]:
    """Per-file ``(code_lines, physical_lines)`` under ``paths``."""
    return {
        path: count_source(path.read_text(encoding="utf-8"))
        for path in python_files(paths)
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("paths", nargs="*", type=Path, default=[default])
    parser.add_argument("--files", action="store_true", help="one row per file")
    args = parser.parse_args(argv)
    counts = count_tree(args.paths)
    if args.files:
        for path, (code, physical) in sorted(
            counts.items(), key=lambda item: (-item[1][0], str(item[0]))
        ):
            print(f"{code:7d} {physical:7d}  {path}")
    code = sum(c for c, _ in counts.values())
    physical = sum(p for _, p in counts.values())
    print(f"code lines: {code}  physical lines: {physical}  files: {len(counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
