"""Condition drivers, seed wiring, results table layout, report formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from _oracles import central_report_oracle, central_split_oracle, parse_report
from _synth import (
    grades_dataset_spec,
    outcomes_dataset_spec,
    write_grades_csv,
    write_outcomes_csv,
)
import fedtab.experiment
from fedtab import federation
from fedtab.attack import AttackConfig
from fedtab.config import CONDITIONS, ExperimentConfig, OutputConfig, config_from_dict
from fedtab.dataset import build_client_partitions
from fedtab.errors import InvalidConfigError
from fedtab.experiment import (
    RESULT_COLUMNS,
    SharedWork,
    build_results_table,
    emit_report,
    epochs_for_budget,
    mean_reports,
    run_condition,
    run_condition_detailed,
    run_suite,
)
from fedtab.federation import FederationConfig, run_federated
from fedtab.metrics import MetricsReport
from fedtab.models import Forest, LinearModel, TrainConfig, train_forest, train_logreg
from fedtab.schemas import load_dataset


def report(acc, rec=0.5, f1=0.5, auc=0.5, n=40):
    return MetricsReport(accuracy_pct=acc, recall=rec, f1=f1, auc_roc=auc, n_samples=n)


def test_epochs_for_budget_values():
    assert epochs_for_budget(300, 2) == 150
    assert epochs_for_budget(300, 4) == 75
    assert epochs_for_budget(300, 6) == 50
    assert epochs_for_budget(300, 8) == 38  # 37.5 rounds half up
    assert epochs_for_budget(300, 10) == 30
    assert epochs_for_budget(10, 400) == 1  # never below one epoch


def test_mean_reports_averages_fields():
    out = mean_reports([report(80.0, 0.5, 0.4, 0.6), report(90.0, 0.7, 0.6, 0.8)])
    assert out.accuracy_pct == pytest.approx(85.0)
    assert out.recall == pytest.approx(0.6)
    assert out.f1 == pytest.approx(0.5)
    assert out.auc_roc == pytest.approx(0.7)
    assert out.n_samples == 40
    with pytest.raises(ValueError):
        mean_reports([report(80.0, n=40), report(80.0, n=41)])
    with pytest.raises(InvalidConfigError):
        mean_reports([])


@pytest.fixture(scope="module")
def grades(tmp_path_factory):
    path = write_grades_csv(tmp_path_factory.mktemp("exp") / "grades.csv", n=300, seed=31)
    spec = grades_dataset_spec(path)
    return spec, load_dataset(spec)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    path = write_outcomes_csv(tmp_path_factory.mktemp("exp") / "outcomes.csv", n=360, seed=37)
    spec = outcomes_dataset_spec(path)
    return spec, load_dataset(spec)


def small_cfg(**overrides):
    defaults = dict(
        datasets=("A",),
        models=("logistic",),
        conditions=("central_clean", "central_poisoned", "fl_clean", "fl_poisoned"),
        round_budgets=(1, 2),
        epoch_budget=60,
        seeds=(3,),
        output=OutputConfig(path=None),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_all_four_conditions_produce_reports(grades):
    spec, data = grades
    cfg = small_cfg()
    reports = {
        condition: run_condition(cfg, spec, "logistic", condition, master_seed=3, data=data)
        for condition in cfg.conditions
    }
    sizes = {r.n_samples for r in reports.values()}
    assert len(sizes) == 1, "every condition evaluates on the same pooled test split"
    assert reports["central_clean"].accuracy_pct > 75.0
    assert reports["fl_clean"].accuracy_pct > 75.0


def test_run_condition_is_deterministic(grades):
    spec, data = grades
    cfg = small_cfg()
    a = run_condition(cfg, spec, "logistic", "fl_poisoned", master_seed=5, data=data)
    b = run_condition(cfg, spec, "logistic", "fl_poisoned", master_seed=5, data=data)
    assert a == b
    c = run_condition(cfg, spec, "logistic", "fl_poisoned", master_seed=6, data=data)
    assert a != c


def test_fl_report_is_mean_over_round_budgets(grades):
    spec, data = grades
    cfg = small_cfg(round_budgets=(1, 2, 3))
    cell_report, logs = run_condition_detailed(
        cfg, spec, data, "logistic", "fl_clean", master_seed=2
    )
    assert sorted(logs) == [1, 2, 3]
    assert cell_report == mean_reports([logs[b].records[-1].global_metrics for b in (1, 2, 3)])
    for budget, log in logs.items():
        assert len(log.records) == budget


def test_fl_per_round_averaging_mode(grades):
    spec, data = grades
    cfg = small_cfg(round_budgets=(3,), fl_average="per_round")
    cell_report, logs = run_condition_detailed(
        cfg, spec, data, "logistic", "fl_clean", master_seed=2
    )
    assert sorted(logs) == [3] and len(logs[3].records) == 3
    # one budget: the cell's report is that budget's mean over its rounds
    assert cell_report == mean_reports([r.global_metrics for r in logs[3].records])


def test_forest_federation_runs_once_per_cell(grades, monkeypatch):
    spec, data = grades
    cfg = small_cfg(
        models=("forest",),
        round_budgets=(1, 2, 3),
        train_overrides={"forest": {"n_trees": 4, "max_depth": 5}},
    )
    trained = []

    def counted_train_forest(train, train_cfg):
        trained.append(train_cfg.seed)
        return train_forest(train, train_cfg)

    monkeypatch.setattr(federation, "train_forest", counted_train_forest)
    cell_report, logs = run_condition_detailed(
        cfg, spec, data, "forest", "fl_poisoned", master_seed=4
    )
    assert sorted(trained) == [4 ^ c for c in range(cfg.n_clients)]  # one forest per client
    monkeypatch.undo()

    partitions, _ = build_client_partitions(data, spec.schema, cfg.n_clients, cfg.test_fraction, 4)
    attack = AttackConfig(
        flip_fraction=cfg.flip_fraction,
        malicious_clients=frozenset(cfg.malicious_clients),
        seed=cfg.attack_seed ^ 4,
    )
    assert sorted(logs) == [1, 2, 3]
    finals = {}
    for budget, log in logs.items():
        epochs = epochs_for_budget(cfg.epoch_budget, budget)
        fed_cfg = FederationConfig(
            model_kind="forest",
            rounds=budget,
            train_cfg=replace(cfg.train_config("forest"), epochs=epochs, seed=4),
        )
        _, alone = run_federated(partitions, fed_cfg, attack)
        assert log.records == alone.records
        assert sorted(log.flip_masks) == sorted(alone.flip_masks) == [0]
        for client, mask in alone.flip_masks.items():
            assert np.array_equal(log.flip_masks[client], mask)
        finals[budget] = alone.records[-1].global_metrics
    assert cell_report == mean_reports([finals[b] for b in (1, 2, 3)])


@pytest.mark.parametrize("fl_average", ["final", "per_round"])
@pytest.mark.parametrize("model", ["logistic", "svm"])
@pytest.mark.parametrize(
    "epoch_budget, distinct_epochs", [(2, 1), (12, 3)], ids=["colliding", "distinct"]
)
def test_budgets_with_equal_local_epochs_share_one_run(
    grades, monkeypatch, model, fl_average, epoch_budget, distinct_epochs
):
    spec, data = grades
    budgets = (2, 4, 6)  # local epochs 1, 1, 1 at epoch_budget 2; 6, 3, 2 at 12
    cfg = small_cfg(
        models=(model,), round_budgets=budgets, epoch_budget=epoch_budget, fl_average=fl_average
    )
    calls = []

    def counted(partitions, fed_cfg, attack=None, round_one=None, **options):
        calls.append(fed_cfg.rounds)
        return run_federated(partitions, fed_cfg, attack, round_one, **options)

    monkeypatch.setattr(fedtab.experiment, "run_federated", counted)
    cell_report, logs = run_condition_detailed(cfg, spec, data, model, "fl_poisoned", master_seed=4)
    monkeypatch.undo()
    local_epochs = {epochs_for_budget(epoch_budget, b) for b in budgets}
    assert len(local_epochs) == distinct_epochs
    assert len(calls) == distinct_epochs

    partitions, _ = build_client_partitions(data, spec.schema, cfg.n_clients, cfg.test_fraction, 4)
    attack = AttackConfig(
        flip_fraction=cfg.flip_fraction,
        malicious_clients=frozenset(cfg.malicious_clients),
        seed=cfg.attack_seed ^ 4,
    )
    lines, expected_reports = [], []
    for budget in budgets:
        epochs = epochs_for_budget(epoch_budget, budget)
        fed_cfg = FederationConfig(
            model_kind=model,
            rounds=budget,
            train_cfg=replace(cfg.train_config(model), epochs=epochs, seed=4),
        )
        _, alone = run_federated(partitions, fed_cfg, attack)
        if fl_average == "final":
            expected = alone.records[-1].global_metrics
            assert logs[budget].records[-1].global_metrics == expected
        else:
            expected = mean_reports([r.global_metrics for r in alone.records])
            assert mean_reports([r.global_metrics for r in logs[budget].records]) == expected
        expected_reports.append(expected)
        lines.extend(
            fedtab.experiment._round_log_lines("A", model, "fl_poisoned", 4, {budget: alone})
        )
    assert fedtab.experiment._round_log_lines("A", model, "fl_poisoned", 4, logs) == lines
    assert cell_report == mean_reports(expected_reports)


def test_three_class_pipeline_runs(outcomes):
    spec, data = outcomes
    cfg = small_cfg(models=("forest",), round_budgets=(2,))
    out = run_condition(cfg, spec, "forest", "fl_clean", master_seed=1, data=data)
    assert out.accuracy_pct > 60.0
    assert 0.0 <= out.auc_roc <= 1.0


def _cell_reports():
    return {
        ("A", "logistic", "central_clean"): report(94.8125, 0.9412, 0.93456, 0.97111),
        ("A", "logistic", "fl_clean"): report(93.6401, 0.8830, 0.91001, 0.96005),
        ("A", "logistic", "central_poisoned"): report(87.34, 0.5877, 0.8101, 0.8432),
        ("A", "logistic", "fl_poisoned"): report(92.79, 0.8602, 0.9055, 0.9521),
    }


def test_results_table_layout_and_rounding():
    table = build_results_table(_cell_reports(), ("A",), ("logistic",))
    assert len(table.rows) == 4  # one per metric
    acc = table.rows[0]
    assert (acc.dataset, acc.model, acc.metric) == ("A", "Logistic regression", "Accuracy")
    assert acc.cells[0] == 94.81  # accuracy rounds to 2 decimals
    assert acc.cells[1] == 93.64
    assert acc.cells[2] == pytest.approx(94.81 - 93.64, abs=1e-9)  # from rounded operands
    rec = table.rows[1]
    assert rec.metric == "Recall"
    assert rec.cells[0] == 0.9412  # other metrics round to 4 decimals
    assert rec.cells[5] == pytest.approx(abs(0.8602 - 0.5877), abs=1e-9)


def test_results_table_missing_conditions_leave_blanks():
    cells = {("A", "svm", "central_clean"): report(80.0)}
    table = build_results_table(cells, ("A",), ("svm",))
    row = table.rows[0]
    assert row.cells[0] == 80.0
    assert row.cells[1] is None and row.cells[2] is None and row.cells[5] is None


def test_emit_delimited_round_trips_and_is_stable():
    table = build_results_table(_cell_reports(), ("A",), ("logistic",))
    text = emit_report(table, "delimited")
    again = emit_report(table, "delimited")
    assert text == again, "emitting the same table twice must be byte-identical"
    header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
    assert header.split(",")[3:] == list(RESULT_COLUMNS)
    parsed = parse_report(text)
    assert parsed.rows == table.rows


_HEADER = ",".join(("Dataset", "Model", "Metric") + RESULT_COLUMNS)


def test_parse_report_rejects_a_metric_emit_report_cannot_write():
    line = "A,SVM,Precision,1.0,2.0,3.0,4.0,5.0,6.0"
    with pytest.raises(InvalidConfigError, match="unknown metric 'Precision'") as caught:
        parse_report(f"{_HEADER}\n{line}\n")
    assert line in str(caught.value)


def test_parse_report_rejects_a_non_numeric_cell():
    line = "A,SVM,Recall,0.5,x,,0.5,0.5,"
    with pytest.raises(InvalidConfigError, match="non-numeric cell") as caught:
        parse_report(f"{_HEADER}\n{line}\n")
    assert line in str(caught.value)


def test_emit_structured_and_human_formats():
    table = build_results_table(_cell_reports(), ("A",), ("logistic",))
    payload = json.loads(emit_report(table, "structured"))
    assert payload["columns"] == list(RESULT_COLUMNS)
    assert payload["rows"][0]["values"]["Standard ML"] == 94.81
    human = emit_report(table, "human")
    assert "Standard Poisoned" in human and "Logistic regression" in human
    with pytest.raises(InvalidConfigError):
        emit_report(table, "latex")


def test_run_suite_writes_outputs(tmp_path, grades):
    spec, _ = grades
    out_path = tmp_path / "results.csv"
    log_path = tmp_path / "rounds.jsonl"
    cfg = small_cfg(
        conditions=("central_clean", "fl_clean", "fl_poisoned"),
        output=OutputConfig(path=str(out_path), format="delimited", round_log=str(log_path)),
    )
    seen = []
    table = run_suite(cfg, datasets={"A": spec}, progress=seen.append)
    assert seen == ["A/logistic/central_clean", "A/logistic/fl_clean", "A/logistic/fl_poisoned"]
    parsed = parse_report(out_path.read_text(encoding="utf-8"))
    assert parsed.rows == table.rows
    lines = [json.loads(ln) for ln in log_path.read_text(encoding="utf-8").splitlines()]
    rounds = [ln for ln in lines if ln["type"] == "round"]
    flips = [ln for ln in lines if ln["type"] == "flips"]
    # budgets 1 and 2 for two federated conditions: 3 + 3 round records
    assert len(rounds) == 6
    assert all(set(r) >= {"dataset", "model", "condition", "seed", "budget", "round", "global"} for r in rounds)
    assert flips and all(f["condition"] == "fl_poisoned" and f["client"] == 0 for f in flips)


def test_run_suite_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without counts imports numpy.ma on first use, 10-16 ms of a
    # run; a fresh interpreter shows whether a grid run still pays for it
    tests = Path(__file__).resolve().parent
    src = str(Path(fedtab.experiment.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tests)])}
    probe = f"""
import sys
from pathlib import Path
from _synth import grades_dataset_spec, write_grades_csv
from fedtab.config import ExperimentConfig, OutputConfig
from fedtab.experiment import run_suite
spec = grades_dataset_spec(write_grades_csv(Path({str(tmp_path / "grades.csv")!r}), n=120))
cfg = ExperimentConfig(
    datasets=("A",), round_budgets=(1, 2), epoch_budget=2, seeds=(0,),
    train_overrides={{"forest": {{"n_trees": 2}}}}, output=OutputConfig(path=None),
)
run_suite(cfg, datasets={{"A": spec}})
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("condition", ["central_clean", "central_poisoned", "fl_clean"])
def test_only_federated_cells_score_local_models(grades, monkeypatch, condition):
    # a central cell emits no round log, so its model predicts only to be evaluated
    spec, data = grades
    calls = []
    for name in ("predict_labels", "predict_scores"):
        real = getattr(federation, name)
        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(federation, name, spy)
    cfg = small_cfg(models=("forest",), round_budgets=(2,))
    run_condition_detailed(cfg, spec, data, "forest", condition, master_seed=3)
    local = ["predict_labels"] * cfg.n_clients if condition == "fl_clean" else []
    assert calls == local + ["predict_scores"]


def test_run_suite_encodes_each_table_once(grades, outcomes, monkeypatch):
    calls = []

    def counting_load_dataset(spec):
        calls.append(spec)
        return load_dataset(spec)

    monkeypatch.setattr(fedtab.experiment, "load_dataset", counting_load_dataset)
    cfg = small_cfg(
        datasets=("A", "B"),
        models=("logistic", "forest"),
        seeds=(3, 4),
        train_overrides={"forest": {"n_trees": 2, "max_depth": 3}},
    )
    (spec_a, _), (spec_b, _) = grades, outcomes
    run_suite(cfg, datasets={"A": spec_a, "B": spec_b})
    assert calls == [spec_a, spec_b]  # not one per cell and seed


def shared_cfg(**overrides):
    # epoch_budget 2 gives local_epochs 2, 1, 1 for budgets 1, 2, 3, so two
    # budgets share each client's round one
    return small_cfg(
        datasets=("A", "B"),
        models=("logistic", "forest"),
        seeds=(3, 4),
        malicious_clients=(0, 2),
        round_budgets=(1, 2, 3),
        epoch_budget=2,
        train_overrides={"forest": {"n_trees": 2, "max_depth": 3}},
        **overrides,
    )


def _record_cells(monkeypatch):
    """Wrap run_suite's cell runner; returns the (spec key, seed) in progress
    and each cell's report keyed by (spec key, model, condition, seed)."""
    current: list[tuple[str, int]] = []
    reports = {}
    run_cell = fedtab.experiment.run_condition_detailed

    def recording(cfg, dataset, data, model_kind, condition, master_seed, shared=None):
        current[:] = [(dataset.key, master_seed)]
        result = run_cell(cfg, dataset, data, model_kind, condition, master_seed, shared)
        reports[(dataset.key, model_kind, condition, master_seed)] = result[0]
        return result

    monkeypatch.setattr(fedtab.experiment, "run_condition_detailed", recording)
    return current, reports


def test_run_suite_builds_shared_work_once_per_seed(grades, outcomes, monkeypatch):
    cfg = shared_cfg()
    current, _ = _record_cells(monkeypatch)
    builds, forests, round_ones = [], [], []
    build = fedtab.experiment.build_client_partitions

    def counting_build(data, schema, n_clients, test_fraction, seed):
        parts = build(data, schema, n_clients, test_fraction, seed)
        builds.append(((schema, seed), parts))
        return parts

    def counting_forest(train, train_cfg):
        forests.append(current[0])
        return train_forest(train, train_cfg)

    def counting_logreg(train, train_cfg, init=None):
        if init is None:
            round_ones.append(
                (current[0], train_cfg.seed, train_cfg.epochs, train.labels.tobytes())
            )
        return train_logreg(train, train_cfg, init=init)

    monkeypatch.setattr(fedtab.experiment, "build_client_partitions", counting_build)
    # central cells are one-client federations, so every training goes through federation
    monkeypatch.setattr(federation, "train_forest", counting_forest)
    monkeypatch.setattr(federation, "train_logreg", counting_logreg)
    (spec_a, _), (spec_b, _) = grades, outcomes
    run_suite(cfg, datasets={"A": spec_a, "B": spec_b})

    seeds = [(spec.key, seed) for spec in (spec_a, spec_b) for seed in cfg.seeds]
    # exactly one build per (table, seed): both scopes come from it
    assert [key for key, _ in builds] == [(spec.schema, s) for spec in (spec_a, spec_b)
                                          for s in cfg.seeds]
    # every client clean, then the malicious clients poisoned
    client_models = cfg.n_clients + len(cfg.malicious_clients)
    per_seed = 2 + client_models  # plus central clean and central poisoned
    assert sorted(forests) == sorted(s for s in seeds for _ in range(per_seed))
    local_epochs = {epochs_for_budget(cfg.epoch_budget, b) for b in cfg.round_budgets}
    assert len(local_epochs) < len(cfg.round_budgets)
    assert len(set(round_ones)) == len(round_ones)
    # plus central clean and central poisoned: one round of the pooled client
    assert len(round_ones) == len(seeds) * (len(local_epochs) * client_models + 2)
    clients, pooled = builds[0][1]
    for part in (clients[0], pooled):
        with pytest.raises(ValueError):
            part.train.features[0, 0] = 1.0


def _held_models(root) -> int:
    """Models reachable from ``root`` through containers and instance attributes."""
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, np.ndarray, str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Forest, LinearModel)):
            found += 1
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def test_central_cells_keep_no_models_in_shared_work(grades):
    # a clean and a poisoned central run share no round one, so keeping their
    # models would only hold both until the seed ends
    spec, data = grades
    cfg = small_cfg(models=("forest",), train_overrides={"forest": {"n_trees": 2, "max_depth": 3}})
    shared = SharedWork(data, spec.schema, cfg.n_clients, cfg.test_fraction, 3)
    for condition in ("central_clean", "central_poisoned"):
        run_condition_detailed(cfg, spec, data, "forest", condition, 3, shared)
    assert shared.round_one == {}
    assert _held_models(shared) == 0
    run_condition_detailed(cfg, spec, data, "forest", "fl_clean", 3, shared)
    assert _held_models(shared) == len(shared.round_one) == cfg.n_clients  # the walk sees models


_UNKNOWN = (
    "unknown condition 'fl_bogus'; expected one of "
    "('central_clean', 'central_poisoned', 'fl_clean', 'fl_poisoned')"
)


def test_unknown_condition_is_a_config_error_before_any_partition(grades, monkeypatch):
    with pytest.raises(InvalidConfigError) as caught:
        ExperimentConfig(conditions=("fl_bogus",))
    assert str(caught.value) == _UNKNOWN

    def no_partitions(*args):
        raise AssertionError("a partition was built for an unknown condition")

    monkeypatch.setattr(fedtab.experiment, "build_client_partitions", no_partitions)
    spec, data = grades
    with pytest.raises(InvalidConfigError) as caught:
        run_condition_detailed(small_cfg(), spec, data, "logistic", "fl_bogus", 3)
    assert str(caught.value) == _UNKNOWN


@pytest.mark.parametrize("original", ["central_poisoned", "fl_poisoned"])
def test_a_condition_is_its_data_not_its_name(grades, monkeypatch, original):
    # a copy registered under another name runs as the original does
    copy = f"copy_of_{original}"
    monkeypatch.setitem(CONDITIONS, copy, CONDITIONS[original])
    spec, data = grades
    cfg = small_cfg(conditions=(original, copy))
    assert cfg.conditions == (original, copy)
    expected_report, expected_logs = run_condition_detailed(cfg, spec, data, "svm", original, 3)
    got_report, got_logs = run_condition_detailed(cfg, spec, data, "svm", copy, 3)
    assert got_report == expected_report
    assert got_logs.keys() == expected_logs.keys()
    assert bool(got_logs) == (original == "fl_poisoned")
    for budget, log in got_logs.items():
        assert log.records == expected_logs[budget].records
        masks = expected_logs[budget].flip_masks
        assert log.flip_masks.keys() == masks.keys() == set(cfg.malicious_clients)
        for client, mask in log.flip_masks.items():
            assert mask.tobytes() == masks[client].tobytes()


@pytest.mark.parametrize("master_seed", [3, 8])
@pytest.mark.parametrize("table", ["grades", "outcomes"])
def test_pooled_scope_is_one_partition_of_the_pooled_rows(request, table, master_seed):
    spec, data = request.getfixturevalue(table)
    cfg = small_cfg()
    train_rows, test_rows, train, test = central_split_oracle(
        data, spec.schema, cfg.n_clients, cfg.test_fraction, master_seed
    )
    clients, part = build_client_partitions(
        data, spec.schema, cfg.n_clients, cfg.test_fraction, master_seed
    )
    assert part.client_id == 0
    # the pooled partition holds the clients' rows of the same split, in client order
    for rows in ("train_rows", "test_rows"):
        expected = np.concatenate([getattr(c, rows) for c in clients])
        assert np.array_equal(getattr(part, rows), expected)
    for side in ("train", "test"):
        labels = np.concatenate([getattr(c, side).labels for c in clients])
        assert np.array_equal(getattr(part, side).labels, labels)
    pairs = [
        (part.train.features, train.features), (part.train.labels, train.labels),
        (part.test.features, test.features), (part.test.labels, test.labels),
        (part.train_rows, train_rows), (part.test_rows, test_rows),
    ]
    for got, expected in pairs:
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
    assert part.train.feature_names == train.feature_names


@pytest.mark.parametrize("master_seed", [3, 8])
@pytest.mark.parametrize("malicious", [(0,), (1,)])
@pytest.mark.parametrize("table", ["grades", "outcomes"])
@pytest.mark.parametrize("condition", ["central_clean", "central_poisoned"])
@pytest.mark.parametrize("model", ["logistic", "svm", "forest"])
def test_central_cell_matches_separate_central_oracle(
    request, model, condition, table, malicious, master_seed
):
    # the malicious clients of fl_poisoned play no part in a central cell
    spec, data = request.getfixturevalue(table)
    cfg = small_cfg(
        models=(model,),
        malicious_clients=malicious,
        train_overrides={"forest": {"n_trees": 3, "max_depth": 4}},
    )
    result = run_condition_detailed(cfg, spec, data, model, condition, master_seed)
    expected = central_report_oracle(data, spec.schema, cfg, model, condition, master_seed)
    assert result == (expected, {})


def test_run_suite_cells_match_standalone_cells(grades, outcomes, tmp_path, monkeypatch):
    report_path, log_path = tmp_path / "report.csv", tmp_path / "rounds.jsonl"
    cfg = shared_cfg(
        output=OutputConfig(path=str(report_path), format="delimited", round_log=str(log_path))
    )
    _, suite_reports = _record_cells(monkeypatch)
    encoded = {"A": grades, "B": outcomes}
    run_suite(cfg, datasets={key: spec for key, (spec, _) in encoded.items()})
    monkeypatch.undo()

    lines, means = [], {}
    for key in cfg.datasets:
        spec, data = encoded[key]
        for model in cfg.models:
            for condition in cfg.conditions:
                seed_reports = []
                for seed in cfg.seeds:  # nothing shared between these calls
                    cell_report, logs = run_condition_detailed(
                        cfg, spec, data, model, condition, seed
                    )
                    assert cell_report == suite_reports[(spec.key, model, condition, seed)]
                    seed_reports.append(cell_report)
                    lines.extend(
                        fedtab.experiment._round_log_lines(key, model, condition, seed, logs)
                    )
                means[(key, model, condition)] = mean_reports(seed_reports)
    assert len(suite_reports) == len(cfg.datasets) * len(cfg.models) * 4 * len(cfg.seeds)
    assert log_path.read_text(encoding="utf-8") == "".join(ln + "\n" for ln in lines)
    table = build_results_table(means, cfg.datasets, cfg.models)
    assert report_path.read_text(encoding="utf-8") == emit_report(table, "delimited")

    spec, data = grades
    seed_3 = SharedWork(data, spec.schema, cfg.n_clients, cfg.test_fraction, 3)
    with pytest.raises(ValueError, match="another table, seed"):
        run_condition_detailed(cfg, spec, data, "logistic", "fl_clean", 4, seed_3)


def test_config_of_every_default_field_reads_back_as_the_default():
    # the payload a YAML file listing every field at its default would hold
    payload = json.loads(json.dumps(asdict(ExperimentConfig())))
    assert set(payload) == {f.name for f in fields(ExperimentConfig)}
    assert config_from_dict(payload) == ExperimentConfig()


def test_config_round_trip_and_validation():
    cfg = config_from_dict(
        {
            "datasets": ["A"],
            "models": ["svm"],
            "round_budgets": [2, 4],
            "seeds": [1, 2],
            "train_overrides": {"svm": {"l2": 0.01}},
            "output": {"path": "x.csv", "format": "structured"},
        }
    )
    assert cfg.train_config("svm").l2 == 0.01
    assert cfg.train_config("svm").learning_rate == 0.05  # default preserved
    assert cfg.output.format == "structured"
    with pytest.raises(InvalidConfigError):
        config_from_dict({"models": ["boosted"]})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"surprise": 1})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"round_budgets": [2, 2]})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"train_overrides": {"svm": {"turbo": True}}})
    # every run sets these itself, from epoch_budget and seeds
    with pytest.raises(InvalidConfigError, match="epoch_budget"):
        config_from_dict({"train_overrides": {"logistic": {"epochs": 300}}})
    with pytest.raises(InvalidConfigError, match="seeds"):
        config_from_dict({"train_overrides": {"svm": {"seed": 1}}})
    with pytest.raises(InvalidConfigError, match="learning_rate \\* l2"):
        config_from_dict({"train_overrides": {"svm": {"learning_rate": 10.0, "l2": 0.1}}})
    config_from_dict({"train_overrides": {"logistic": {"learning_rate": 10.0, "l2": 0.1}}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"malicious_clients": [7]})


@pytest.mark.parametrize("model, name, value, settings, default", [
    ("forest", "learning_rate", 0.5, "['n_trees', 'max_depth', 'min_leaf']",
     dict(n_trees=100, max_depth=12, min_leaf=2)),
    ("svm", "n_trees", 7, "['learning_rate', 'l2']", dict(learning_rate=0.05, l2=1e-3)),
    ("logistic", "min_leaf", 9, "['learning_rate', 'l2']", dict(learning_rate=0.1, l2=1e-3)),
])
def test_train_overrides_take_only_the_settings_the_model_reads(
    model, name, value, settings, default
):
    with pytest.raises(InvalidConfigError) as caught:
        config_from_dict({"train_overrides": {model: {name: value}}})
    assert str(caught.value) == (
        f"train_overrides.{model} cannot set ['{name}']: the {model} model reads only {settings}"
    )
    # every model still starts from the TrainConfig it always did
    assert ExperimentConfig().train_config(model) == TrainConfig(**default, epochs=300, seed=0)
