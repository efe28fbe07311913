"""Count code lines of Python sources: the size figure size-reduction claims cite.

A line counts unless it is blank, holds only a ``#`` comment, or lies
inside the docstring of a module, class or function.  Every other line
counts, including each line of a multi-line string that is not a
docstring.

Usage::

    python benchmarks/code_lines.py src
    python benchmarks/code_lines.py src/repro/persist/artifact.py src/repro/persist/index.py

Prints one ``count path`` line per file (directories are walked for
``*.py``), then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

_NON_CODE_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_spans(tree: ast.AST) -> Set[Tuple[int, int]]:
    """Start positions ``(line, column)`` of every module/class/function docstring."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                spans.add((body[0].lineno, body[0].col_offset))
    return spans


def count_code_lines(source: str) -> int:
    """Number of code lines in ``source`` under the rule in the module docstring."""
    docstrings = _docstring_spans(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE_TOKENS:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python benchmarks/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = count_code_lines(path.read_text("utf-8"))
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
