"""Shared pieces of the fedtab grid benchmark.

The benchmark is a closed loop: one grid run at a time, each in a fresh
Python process (``child.py``) that calls ``fedtab.experiment.run_suite`` on
a generated stand-in configuration.  This module holds what the entry
points share: the workload definitions, stand-in generation with pinned
digests, spawning and reaping one grid process, the per-cell output
digests and the environment stamp.

The real tables cannot be fetched offline, so every input is a
schema-identical stand-in written by ``tests/_synth.py`` from the checkout.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"
DATA_FILES = {"A": "student-mat.csv", "B": "student-dropout.csv"}

# Benchmark seed n selects pinned stand-in set n % SEED_COUNT, so every seed
# maps onto inputs whose digests and golden outputs are committed.
SEED_COUNT = 16
# Hard limit on one grid process; a run that hangs is killed and fails.
CHILD_TIMEOUT_S = 150.0
# Pinned so BLAS cannot add threads of its own; the grid is single-process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The report's condition columns, by the grid condition that fills them.
CONDITION_COLUMNS = {"central_clean": 0, "fl_clean": 1, "central_poisoned": 3, "fl_poisoned": 4}
MODEL_LABELS = {"logistic": "Logistic regression", "svm": "SVM", "forest": "Random forest"}
ALL_DATASETS = ("A", "B")
ALL_MODELS = ("logistic", "svm", "forest")
ALL_CONDITIONS = ("central_clean", "central_poisoned", "fl_clean", "fl_poisoned")


def grid_cells(datasets=ALL_DATASETS, models=ALL_MODELS, conditions=ALL_CONDITIONS) -> list[str]:
    """Cell names ``<dataset>.<model>.<condition>`` in grid order."""
    return [f"{d}.{m}.{c}" for d in datasets for m in models for c in conditions]


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


@dataclass(frozen=True)
class Workload:
    """One grid configuration and the stand-in tables it runs on.

    ``tables`` maps dataset key to stand-in row count; ``config`` is the
    experiment configuration minus data and output paths.  Every workload
    keeps 3 clients, the default round budgets and the default attack, and
    is sized by lowering one knob only.
    """

    name: str
    tables: dict[str, int]
    config: dict

    def cells(self) -> list[str]:
        return grid_cells(
            self.config.get("datasets", ALL_DATASETS),
            self.config.get("models", ALL_MODELS),
            self.config.get("conditions", ALL_CONDITIONS),
        )


WORKLOADS = {
    # Forest only, real-size table B: forest growth and routing at scale, the
    # per-budget client-forest rebuild and the constant tree union evaluated
    # every round.  Bypasses the SVM and logistic code.
    "forest_B": Workload(
        "forest_B",
        {"B": 4424},
        {"datasets": ["B"], "models": ["forest"], "train_overrides": {"forest": {"n_trees": 1}}},
    ),
    # Logistic and SVM only, real-size table B: the per-sample SVM loop, a
    # FedAvg whose result changes each round and real-size partitioning.
    # Runs no forest code.
    "linear_B": Workload(
        "linear_B",
        {"B": 4424},
        {"datasets": ["B"], "models": ["logistic", "svm"], "epoch_budget": 2},
    ),
    # The full 2x3x4 grid on tiny tables over three master seeds: per-call
    # overhead, the small-input metrics branch and per-cell orchestration.
    # Not gated in BENCHMARK.json: host noise needs runs longer than the
    # total time limit allows for three workloads (see README.md).
    "small_grid": Workload(
        "small_grid",
        {"A": 150, "B": 180},
        {"seeds": [0, 1, 2], "epoch_budget": 5, "train_overrides": {"forest": {"n_trees": 2}}},
    ),
}


def check_checkout() -> None:
    """Fail unless the benchmark sits in a fedtab source checkout."""
    needed = [ROOT / "src" / "fedtab" / "__init__.py", ROOT / "tests" / "_synth.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a fedtab checkout: missing {', '.join(missing)}")


def import_fedtab():
    """Import fedtab from this checkout's src/, never from anywhere else."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fedtab

    if Path(fedtab.__file__).resolve().parent != ROOT / "src" / "fedtab":
        raise BenchError(f"fedtab imported from {fedtab.__file__}, not from this checkout")
    return fedtab


def _synth():
    import_fedtab()
    spec = importlib.util.spec_from_file_location("fedtab_bench_synth", ROOT / "tests" / "_synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def standin_seed(key: str, rows: int, seed_index: int) -> int:
    """Generator seed of one stand-in table; independent per table and set."""
    import numpy as np

    return int(np.random.SeedSequence([ord(key), rows, seed_index]).generate_state(1)[0])


def write_standins(tables: dict[str, int], seed_index: int, dest: Path) -> dict[str, dict]:
    """Write the stand-in tables into ``dest``; return rows and sha256 of each."""
    synth = _synth()
    writers = {"A": synth.write_dataset_a_like, "B": synth.write_dataset_b_like}
    dest.mkdir(parents=True, exist_ok=True)
    stamp = {}
    for key, rows in sorted(tables.items()):
        path = dest / DATA_FILES[key]
        writers[key](path, n=rows, seed=standin_seed(key, rows, seed_index))
        data_rows = path.read_text(encoding="utf-8").count("\n") - 1
        stamp[DATA_FILES[key]] = {"rows": data_rows, "sha256": sha256_file(path)}
    return stamp


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def prepare_inputs(workload: Workload, seed_index: int, dest: Path, golden: dict) -> None:
    """Write the pinned stand-ins and refuse them if any digest moved."""
    stamp = write_standins(workload.tables, seed_index, dest)
    pinned = golden["workloads"][workload.name][str(seed_index)]["inputs"]
    if stamp != pinned:
        raise BenchError(
            f"{workload.name} seed set {seed_index}: stand-in inputs differ from the pinned "
            f"digests (got {stamp}, pinned {pinned}); refusing to time them"
        )


def grid_config(workload: Workload, data_dir: Path, out_dir: Path) -> dict:
    return {
        **workload.config,
        "data_dir": str(data_dir),
        "output": {
            "path": str(out_dir / "report.csv"),
            "format": "delimited",
            "round_log": str(out_dir / "rounds.jsonl"),
        },
    }


@dataclass
class GridRun:
    """What one grid process reported, plus what its parent measured."""

    ok: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    process_s: float = 0.0
    report: str = ""
    round_log: str = ""
    spans: list | None = None


def pin_to_one_cpu() -> int:
    """Pin this process, and so every grid process it starts, to one CPU.

    Each vCPU of a shared host can change speed independently; on one CPU
    the calibration and the grid runs see the same speed.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate(repeats: int = 3, steps: int = 3000) -> float:
    """Seconds of a fixed slice of work shaped like the grid's (median of repeats).

    A per-sample loop of small numpy calls, as in SVM steps, plus a sort and
    a cumulative sum, as in forest splits.  It uses numpy only, never
    fedtab, so no change to the program can move it; it measures how fast
    the host runs at the moment.
    """
    import numpy as np

    X = np.random.default_rng(0).normal(size=(256, 37))
    times = []
    for _ in range(repeats):
        w = np.zeros((3, 37))
        start = time.perf_counter()
        for k in range(steps):
            x = X[k & 255]
            violating = np.flatnonzero(w @ x < 1.0)
            if violating.size:
                w[violating] += 1e-3 * x
            np.cumsum(X[np.argsort(X[:, k % 37]), 0])
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def _wait(pid: int, timeout_s: float):
    """Block until the child exits; kill it after ``timeout_s`` (status None).

    A blocking wait keeps the parent off the CPU while the child runs.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        status = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def run_grid(
    config: dict, out_dir: Path, trace: bool, timeout_s: float = CHILD_TIMEOUT_S
) -> GridRun:
    """Run one grid in a fresh process and collect its timings and outputs.

    Set-up runs from just before the spawn to the child's entry into
    ``run_suite``.  Peak memory is the kernel's ru_maxrss for the child,
    which covers its reaped children too (the largest single process).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    job = out_dir / "job.json"
    result_path = out_dir / "result.json"
    job.write_text(json.dumps({"config": config, "trace": trace, "result": str(result_path)}))
    argv = [sys.executable, str(CHILD), str(job)]
    # the child's stdout goes to stderr so the result line stays last on stdout
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    status, usage = _wait(pid, timeout_s)
    process_s = time.monotonic() - spawned
    if status is None or os.waitstatus_to_exitcode(status) != 0 or not result_path.is_file():
        return GridRun(ok=False, process_s=process_s)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return GridRun(
        ok=True,
        setup_s=result["entry"] - spawned,
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        process_s=process_s,
        report=(out_dir / "report.csv").read_text(encoding="utf-8"),
        round_log=(out_dir / "rounds.jsonl").read_text(encoding="utf-8"),
        spans=result.get("spans"),
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(report: str, round_log: str) -> dict:
    """Whole-file digests plus one digest per grid cell.

    A cell's digest covers its column of the delimited report (one value per
    metric row) and its round-log lines, in file order.
    """
    labels = {label: kind for kind, label in MODEL_LABELS.items()}
    parts: dict[str, list[str]] = {}
    lines = [ln for ln in report.splitlines() if ln and not ln.startswith("#")]
    for line in lines[1:]:
        dataset, label, metric, *values = line.split(",")
        for condition, column in CONDITION_COLUMNS.items():
            key = f"{dataset}.{labels.get(label, label)}.{condition}"
            parts.setdefault(key, []).append(f"{metric}={values[column]}")
    for line in round_log.splitlines():
        record = json.loads(line)
        key = f"{record['dataset']}.{record['model']}.{record['condition']}"
        parts.setdefault(key, []).append(line)
    return {
        "report_sha256": _sha(report),
        "round_log_sha256": _sha(round_log),
        "cells": {key: _sha("\n".join(lines)) for key, lines in sorted(parts.items())},
    }


def failed_cells(run: GridRun, workload: Workload, expected: dict) -> list[str]:
    """Cells of one run that raised or whose outputs differ from the goldens.

    A run that crashed fails every cell.  A whole-file digest that differs
    while every cell matches fails the run's first cell, so a change outside
    the cells (header, conventions, ordering) still counts.
    """
    cells = workload.cells()
    if not run.ok:
        return cells
    try:
        got = output_digests(run.report, run.round_log)
    except (ValueError, KeyError, IndexError):
        return cells
    bad = [c for c in cells if got["cells"].get(c) != expected["cells"].get(c)]
    whole = ("report_sha256", "round_log_sha256")
    if not bad and any(got[k] != expected[k] for k in whole):
        bad = cells[:1]
    return bad


def versions() -> dict[str, str]:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    return {"library": name, "threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"])}


def environment_stamp(load_before: tuple[float, float, float], cpu: int | None = None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        **versions(),
        "blas": _blas(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    }
