"""Print code lines per file, per language and in total under ``src/fedtab``.

A Python line counts when it holds a token other than a comment or a
docstring (the string that opens a module, class or function body).  A C
line counts when it is not blank once ``/* */`` and ``//`` comments are
stripped.

    python3 tools/code_lines.py [root]
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of every docstring token."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def python_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def c_lines(source: str) -> int:
    # a block comment keeps its newlines, so later lines keep their numbers
    stripped = _C_COMMENT.sub(lambda m: "\n" * m.group().count("\n"), source)
    return sum(1 for line in stripped.splitlines() if line.strip())


_COUNTERS = {".py": ("python", python_lines), ".c": ("c", c_lines)}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "fedtab"
    subtotals = {language: 0 for language, _ in _COUNTERS.values()}
    for path in sorted(root.rglob("*")):
        if path.suffix not in _COUNTERS:
            continue
        language, count_lines = _COUNTERS[path.suffix]
        count = count_lines(path.read_text(encoding="utf-8"))
        subtotals[language] += count
        print(f"{count:6d}  {path.relative_to(root)}")
    for language, count in subtotals.items():
        print(f"{count:6d}  {language}")
    print(f"{sum(subtotals.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
