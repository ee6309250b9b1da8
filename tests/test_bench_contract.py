"""The names the benchmark's layer trace reads from the program.

``bench/spans.py`` wraps the functions listed in its ``TARGETS`` and its
probes read call arguments by parameter name (``a["cfg"]``).  A renamed
function or parameter breaks the trace only when the benchmark runs, so
this reads ``spans.py`` as text (it is not imported, and nothing under
``bench/`` is written) and checks both against the package.  It also
checks the row bound behind ``metrics.small_input_share`` against the
metrics module's own, and the package names ``bench/harness.py`` keeps
its own copies of (read the same way) against the package's.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import fedtab.metrics
from fedtab import config, experiment, models, schemas

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
HARNESS = SPANS.with_name("harness.py")


def _contract() -> tuple[dict[tuple[str, str], str | None], dict[str, set[str]]]:
    """``TARGETS`` as (module, function) -> probe name, and each probe's argument reads."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    targets: dict[tuple[str, str], str | None] = {}
    reads: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            for key, value in zip(node.value.keys, node.value.values):
                probe = value.elts[1]
                targets[ast.literal_eval(key)] = probe.id if isinstance(probe, ast.Name) else None
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("_probe"):
            args = node.args.args[0].arg
            reads[node.name] = {
                sub.slice.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == args
                and isinstance(sub.slice, ast.Constant)
            }
    return targets, reads


def test_spans_targets_resolve_and_probes_read_real_parameters():
    targets, reads = _contract()
    assert len(targets) >= 10 and any(reads.values())  # the parse found the table and probes
    for (module_name, func_name), probe in targets.items():
        fn = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(fn), f"{module_name}.{func_name} is traced but does not exist"
        if probe is None:
            continue
        params = set(inspect.signature(fn).parameters)
        missing = reads[probe] - params
        assert not missing, f"{probe} reads {sorted(missing)}, not parameters of {func_name}"


def _literal(path: Path, name: str):
    """The value of the module-level assignment ``name = <literal>`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [value] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return value


def test_spans_small_input_bound_is_the_metrics_branch_bound():
    # spans counts a compute_report at or below SMALL_INPUT_ROWS rows as the small branch
    assert _literal(SPANS, "SMALL_INPUT_ROWS") == fedtab.metrics._SMALL


@pytest.mark.parametrize("name, package_value", [
    ("DATA_FILES", schemas.DATA_FILES),
    ("MODEL_LABELS", experiment.MODEL_LABELS),
    ("ALL_DATASETS", schemas.DATASET_KEYS),
    ("ALL_MODELS", models.MODEL_KINDS),
    ("ALL_CONDITIONS", tuple(config.CONDITIONS)),
])
def test_harness_copies_of_package_names_match(name, package_value):
    # output_digests maps each report row back to its cell through these
    assert _literal(HARNESS, name) == package_value


def test_harness_condition_columns_are_the_columns_the_report_fills():
    columns = _literal(HARNESS, "CONDITION_COLUMNS")
    assert set(columns) == set(config.CONDITIONS)
    report = fedtab.metrics.MetricsReport(
        accuracy_pct=50.0, recall=0.5, f1=0.5, auc_roc=0.5, n_samples=4
    )
    for condition, column in columns.items():
        table = experiment.build_results_table({("A", "svm", condition): report}, ("A",), ("svm",))
        for row in table.rows:
            filled = [j for j, cell in enumerate(row.cells) if cell is not None]
            assert filled == [column], (condition, experiment.RESULT_COLUMNS[column])
