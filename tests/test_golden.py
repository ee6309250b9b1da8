"""Byte stability across versions: a benchmark grid against its pinned digests.

``bench/golden.json`` pins the stand-in inputs and the report and round-log
sha256 of every benchmark workload.  Criterion 09 checks that one build
repeats itself; this test checks that the outputs have not moved since the
digests were pinned, on the tiny full grid and on the real-size forest and
linear workloads, whose forest, SVM and logistic bytes at that size no
smaller test reaches.  Each workload is checked once more with the compiled
kernels forced off, ``train_svm`` on its Python loop and ``train_forest`` on
its numpy split search, once with each table read by the csv reference
reader of ``_oracles`` instead of the package's reader, and once from
stand-ins rewritten with every string cell quoted, as the UCI copy of table
A is; every path must give the pinned bytes.  It reads ``bench/`` and writes
nothing there.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import fedtab.experiment
from _oracles import csv_load_dataset
from _synth import quote_strings
from fedtab.config import config_from_dict
from fedtab.experiment import run_suite

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _bench_harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness may prepend src/
    spec = importlib.util.spec_from_file_location("fedtab_bench_harness", BENCH_DIR / "harness.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["small_grid", "forest_B", "linear_B"])
def test_outputs_match_golden_digests(name, tmp_path, monkeypatch, quoted=False):
    harness = _bench_harness(monkeypatch)
    golden = harness.load_golden()
    if harness.versions() != golden["versions"]:
        pytest.skip(f"digests pinned under {golden['versions']}, running {harness.versions()}")
    workload = harness.WORKLOADS[name]
    pinned = golden["workloads"][workload.name]["0"]
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    assert harness.write_standins(workload.tables, 0, data_dir) == pinned["inputs"]
    if quoted:
        for path in data_dir.iterdir():
            quote_strings(path)

    out_dir.mkdir()
    run_suite(config_from_dict(harness.grid_config(workload, data_dir, out_dir)))
    report, round_log = out_dir / "report.csv", out_dir / "rounds.jsonl"
    got = harness.output_digests(
        report.read_text(encoding="utf-8"), round_log.read_text(encoding="utf-8")
    )
    assert got["cells"] == pinned["cells"]
    assert harness.sha256_file(report) == pinned["report_sha256"]
    assert harness.sha256_file(round_log) == pinned["round_log_sha256"]


@pytest.mark.parametrize("name", ["small_grid", "forest_B", "linear_B"])
def test_outputs_match_golden_digests_with_the_kernel_off(name, tmp_path, monkeypatch, kernel_off):
    test_outputs_match_golden_digests(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", ["small_grid", "forest_B", "linear_B"])
def test_outputs_match_golden_digests_on_the_csv_path(name, tmp_path, monkeypatch):
    monkeypatch.setattr(fedtab.experiment, "load_dataset", csv_load_dataset)
    test_outputs_match_golden_digests(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", ["small_grid", "forest_B", "linear_B"])
def test_outputs_match_golden_digests_from_quoted_tables(name, tmp_path, monkeypatch):
    test_outputs_match_golden_digests(name, tmp_path, monkeypatch, quoted=True)
