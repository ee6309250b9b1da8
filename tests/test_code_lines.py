"""``tools/code_lines.py``: what counts as a code line, and its per-language subtotals."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

PYTHON = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    return (x +
            1)
'''

C = '''/* a block comment
   over two lines */
#include <stdio.h>  /* trailing */

// a line comment
int main(void) {
    int unused = 1;
    return 0; // trailing
}
'''


def _code_lines(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under tools/
    spec = importlib.util.spec_from_file_location("fedtab_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_subtotals_per_language_add_up_to_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(PYTHON, encoding="utf-8")
    (tmp_path / "kernel.c").write_text(C, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not code\n", encoding="utf-8")
    assert _code_lines(monkeypatch).main([str(tmp_path)]) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    # import, def and the return's two lines; #include, int main, int unused, return, }
    assert printed == [
        ["5", "kernel.c"], ["4", "pkg/mod.py"], ["4", "python"], ["5", "c"], ["9", "total"],
    ]
