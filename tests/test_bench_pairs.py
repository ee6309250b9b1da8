"""``tools/bench_pairs.py``'s result parsing and summary, on canned ``bench/run.py`` output."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cell_ok_share", "unit": "1", "better": "higher", "bound": 0.01},
]
STAMP = {"nproc": 2, "python": "3.11.7"}


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under tools/
    spec = importlib.util.spec_from_file_location("fedtab_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(wall_s: float, ok: float = 1.0, correct: bool = True) -> str:
    """What ``bench/run.py --trace 0`` prints, human lines first."""
    result = {"correct": correct, "attempted": 36, "failed": 0, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"}, "cell_ok_share": {"value": ok, "unit": "1"},
    }}
    return "\n".join([
        f"forest_B    wall_s         {wall_s:10.4f} s",
        f"environment: {json.dumps(STAMP, sort_keys=True)}",
        "workload forest_B, seed 0 (stand-in set 0), 36 cells attempted, 0 failed",
        json.dumps(result),
    ]) + "\n"


def test_a_result_is_its_last_line_and_its_environment_stamp(tool):
    assert tool.parse_result(canned(0.08)) == {
        "metrics": {"wall_s": 0.08, "cell_ok_share": 1.0}, "environment": STAMP,
    }


@pytest.mark.parametrize("stdout", [
    canned(0.08, correct=False),
    canned(0.08) + "bench: trailing noise\n",
    "",
    "bench: not a fedtab checkout\n",
    '{"attempted": 36}\n',
])
def test_a_run_that_is_not_correct_is_refused(tool, stdout):
    with pytest.raises(tool.RunRefused):
        tool.parse_result(stdout)


def test_summary_gives_medians_quartiles_wins_and_ties(tool):
    parent = [0.080, 0.082, 0.079, 0.081, 0.090]
    change = [0.076, 0.082, 0.078, 0.077, 0.075]
    pairs = [{"parent": tool.parse_result(canned(p)), "change": tool.parse_result(canned(c))}
             for p, c in zip(parent, change)]
    summary = tool.summarize(pairs, END_TO_END)
    wall = summary["wall_s"]
    # quartiles as bench/spread.py takes them: statistics.quantiles' default method
    assert wall["parent"] == pytest.approx({"q1": 0.0795, "median": 0.081, "q3": 0.086})
    assert wall["change"] == pytest.approx({"q1": 0.0755, "median": 0.077, "q3": 0.080})
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (4, 1, 5)
    assert wall["median_change_pct"] == pytest.approx(100.0 * (0.077 - 0.081) / 0.081)
    assert wall["parent_iqr"] == pytest.approx(0.0065)
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    # higher is better here, and equal shares win no pair
    share = summary["cell_ok_share"]
    assert (share["change_wins"], share["ties"], share["median_change_pct"]) == (0, 5, 0.0)
    lines = tool.format_summary("forest_B", summary)
    assert lines[1].split()[:2] == ["wall_s", "0.0810"] and "wins 4/5, ties 1" in lines[1]


def test_a_pair_line_names_the_side_that_ran_first(tool):
    pair = {"order": ["change", "parent"], "parent": tool.parse_result(canned(0.08)),
            "change": tool.parse_result(canned(0.0765))}
    assert tool.format_pair("forest_B", 2, pair, ["wall_s"]) == (
        "forest_B pair 2 (change first): wall_s 0.0800 -> 0.0765"
    )


def test_both_sides_are_copied_as_source_files_only(tool, tmp_path):
    checkout = tmp_path / "checkout"
    files = {
        "src/fedtab/kernel.py": "kept", "bench/run.py": "kept", "BENCHMARK.json": "kept",
        ".git/HEAD": "git", "src/fedtab/__pycache__/kernel.cpython-311.pyc": "bytecode",
        "tests/stray.pyc": "bytecode", ".bench_work/forest_B/report.csv": "work",
        ".pytest_cache/v/cache/lastfailed": "cache", ".bench_build/x": "build",
        ".benchmarks/x": "history",
    }
    for name, text in files.items():
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(text, encoding="utf-8")
    copies = {side: tool.copy_sources(checkout, tmp_path / "copies" / side) for side in tool.SIDES}
    for side, copy in copies.items():
        assert copy == tmp_path / "copies" / side
        copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
        assert copied == ["BENCHMARK.json", "bench/run.py", "src/fedtab/kernel.py"]
        assert tool.source_digest(copy) == tool.source_digest(checkout)
    assert (checkout / ".bench_work/forest_B/report.csv").exists()  # the checkout is untouched
