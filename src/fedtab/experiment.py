"""Experiment driver: the four-condition grid and the results table.

``config.CONDITIONS`` names each condition and says what it runs (a
``Condition``: pooled or federated, clean or poisoned):

- central_clean: standard ML on every client's training rows pooled;
- central_poisoned: the same with a share of those labels flipped;
- fl_clean: federated averaging over the clients, reported as the mean
  over the configured round budgets;
- fl_poisoned: the same with the malicious clients' labels flipped.

All four run through ``run_federated`` (see ``run_condition_detailed``).
Total optimization effort is held fixed across budgets: a budget of R
rounds trains round(epoch_budget / R) local epochs per round.  Every
random stream's seed comes from ``dataset.derive_seed`` with the master
seed among its parts, so one master seed pins the whole grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .attack import AttackConfig
from .config import ExperimentConfig, condition_of
from .dataset import (
    EncodedDataset,
    FeatureSchema,
    build_client_partitions,
    check_client_split,
    derive_seed,
)
from .errors import InvalidConfigError
from .federation import FederationConfig, RoundLog, run_federated
from .metrics import MetricsReport
from .models import TrainConfig
from .schemas import DatasetSpec, builtin_dataset, load_dataset

MODEL_LABELS = {"forest": "Random forest", "svm": "SVM", "logistic": "Logistic regression"}
# display name -> (MetricsReport field, display decimals), in report order
METRICS = {
    "Accuracy": ("accuracy_pct", 2),
    "Recall": ("recall", 4),
    "F1-Score": ("f1", 4),
    "AUCROC": ("auc_roc", 4),
}


def epochs_for_budget(epoch_budget: int, rounds: int) -> int:
    """Local epochs per round keeping rounds * epochs near the budget."""
    return max(1, int(np.floor(epoch_budget / rounds + 0.5)))


def mean_reports(reports: list[MetricsReport]) -> MetricsReport:
    if not reports:
        raise InvalidConfigError("cannot average zero reports")
    sizes = {r.n_samples for r in reports}
    if len(sizes) != 1:
        raise ValueError(f"averaging reports over different test sizes: {sorted(sizes)}")
    return MetricsReport(**{
        f.name: float(np.mean([getattr(r, f.name) for r in reports]))
        for f in fields(MetricsReport) if f.name != "n_samples"
    }, n_samples=reports[0].n_samples)


class SharedWork:
    """The work every cell of one (table, master seed) shares.

    ``clients`` and ``pooled`` are the one ``build_client_partitions``
    result: one read-only partition per client, z-scored on its own
    training rows, and the one pooled partition of the same rows.  They
    depend on the encoded table, the seed, ``n_clients`` and
    ``test_fraction`` only, which are the constructor's arguments, so no
    model or condition can need another set.  ``round_one`` holds the
    round-one local models of the seed's federated runs (see
    ``run_federated``); pooled cells pass none, since their clean and
    poisoned runs share no round one.
    """

    def __init__(
        self,
        data: EncodedDataset,
        schema: FeatureSchema,
        n_clients: int,
        test_fraction: float,
        master_seed: int,
    ) -> None:
        self.inputs = (data, schema, n_clients, test_fraction, master_seed)
        self.round_one: dict = {}
        self.clients, self.pooled = build_client_partitions(*self.inputs)


def run_condition_detailed(
    cfg: ExperimentConfig,
    dataset: DatasetSpec,
    data: EncodedDataset,
    model_kind: str,
    condition: str,
    master_seed: int,
    shared: SharedWork | None = None,
) -> tuple[MetricsReport, dict[int, RoundLog]]:
    """Run one cell; ``shared`` is the seed's ``SharedWork``, fresh when not given.

    ``condition`` is a name in ``CONDITIONS``; its ``Condition`` says what
    runs.  Returns ``(report, logs)``: ``logs`` maps each round budget to its
    ``RoundLog``, and ``report`` is the mean over budgets of each log's
    final-round global report (``fl_average`` 'final') or of its per-round
    mean ('per_round').  A pooled cell federates the pooled partition
    alone for one round, with client 0 malicious when poisoned, and
    returns its report with empty ``logs``: it writes no round log.  (With
    one client and one round, federated averaging is the client's own
    model, trained with the master seed for the whole epoch budget.)  A
    federated cell runs each trajectory once.  Each budget's ``TrainConfig``
    is built once: the model's settings with the master seed and the
    budget's local epochs (``epochs_for_budget``; a forest ignores epochs
    and takes a one-round run's at every budget).  Round r depends only on
    the global model after round r - 1, the client rows and that
    ``TrainConfig``, none of which depends on the number of rounds.  So
    budgets with equal ``TrainConfig`` (every budget, for a forest) share
    one ``run_federated`` at the longest of them, and each budget's
    ``RoundLog`` is that run's first ``budget`` records with its flip masks.
    """
    cond = condition_of(condition)
    inputs = (data, dataset.schema, cfg.n_clients, cfg.test_fraction, master_seed)
    if shared is None:
        shared = SharedWork(*inputs)
    elif shared.inputs != inputs:
        raise ValueError("shared work was built for another table, seed or client split")

    if cond.pooled:  # one client holding the pooled rows, one round
        partitions, round_one, budgets, malicious = [shared.pooled], None, (1,), (0,)
    else:
        partitions, round_one = shared.clients, shared.round_one
        budgets, malicious = cfg.round_budgets, cfg.malicious_clients
    attack = (AttackConfig(cfg.flip_fraction, frozenset(malicious),
                           derive_seed("attack", cfg.attack_seed, master_seed))
              if cond.poisoned else None)

    groups: dict[TrainConfig, list[int]] = {}
    for budget in budgets:
        # forests ignore epochs: every forest budget takes a one-round run's, so all share one run
        epochs = epochs_for_budget(cfg.epoch_budget, 1 if model_kind == "forest" else budget)
        train_cfg = replace(cfg.train_config(model_kind), epochs=epochs, seed=master_seed)
        groups.setdefault(train_cfg, []).append(budget)
    logs: dict[int, RoundLog] = {}
    for train_cfg, group in groups.items():
        fed_cfg = FederationConfig(model_kind, max(group), train_cfg)
        # a pooled cell emits no round log, so nothing reads its local accuracy
        run = run_federated(partitions, fed_cfg, attack, round_one,
                            local_accuracy=not cond.pooled)[1]
        logs.update((b, RoundLog(run.records[:b], run.flip_masks)) for b in group)
    report = mean_reports([
        logs[b].records[-1].global_metrics if cfg.fl_average == "final"
        else mean_reports([r.global_metrics for r in logs[b].records])
        for b in budgets
    ])
    return report, {} if cond.pooled else logs


def run_condition(
    cfg: ExperimentConfig,
    dataset: DatasetSpec,
    model_kind: str,
    condition: str,
    master_seed: int,
    data: EncodedDataset,
) -> MetricsReport:
    """Run one (dataset, model, condition) cell for one master seed.

    ``data`` is the table's ``load_dataset`` result.
    """
    return run_condition_detailed(cfg, dataset, data, model_kind, condition, master_seed)[0]


@dataclass(frozen=True)
class ResultRow:
    """One line of the results table; cells hold display-rounded values."""

    dataset: str
    model: str
    metric: str
    cells: tuple[float | None, ...]  # one per results column, in order


RESULT_COLUMNS = (
    "Standard ML",
    "FL",
    "Difference",
    "Standard Poisoned",
    "Poisoned FL",
    "Differences",
)
_CONVENTIONS = (
    "Difference = Standard ML - FL",
    "Differences = |Poisoned FL - Standard Poisoned|",
)


def build_results_table(
    cell_reports: Mapping[tuple[str, str, str], MetricsReport],
    datasets: tuple[str, ...],
    models: tuple[str, ...],
) -> tuple[ResultRow, ...]:
    """Arrange per-condition reports into the six-column results layout.

    Each cell is rounded to its metric's decimals in ``METRICS``.
    Differences are recomputed from the rounded condition columns, so the
    printed table is internally consistent at display precision.
    """
    rows = []
    for ds in datasets:
        for model in models:
            reports = [cell_reports.get((ds, model, condition)) for condition in
                       ("central_clean", "fl_clean", "central_poisoned", "fl_poisoned")]
            for metric, (field_name, decimals) in METRICS.items():
                standard, fl, standard_p, fl_p = (
                    None if r is None else round(getattr(r, field_name), decimals) for r in reports
                )
                diff = None if standard is None or fl is None else round(standard - fl, decimals)
                diff_p = (
                    None
                    if standard_p is None or fl_p is None
                    else round(abs(fl_p - standard_p), decimals)
                )
                cells = (standard, fl, diff, standard_p, fl_p, diff_p)
                rows.append(ResultRow(ds, MODEL_LABELS[model], metric, cells))
    return tuple(rows)


def run_suite(
    cfg: ExperimentConfig,
    datasets: Mapping[str, DatasetSpec] | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[ResultRow, ...]:
    """Run the whole grid: dataset x model x condition, averaged over seeds.

    ``datasets`` may inject pre-built specs (tests do); by default the
    built-in catalog plus cfg.data_dir resolves them.  Each table is read
    and encoded once (``load_dataset``), all of them before the first cell,
    and every cell of a table shares that encoding.  Every table's client
    split is checked then too (``check_client_split``), so an ``n_clients``
    too large for any table fails before any cell runs.  Seeds are the next
    loop: every cell of one (table, seed) shares one ``SharedWork`` (the
    one client split, with its client and pooled partitions, and the
    federated round-one models), which is dropped when the seed ends.
    ``progress`` gets ``<dataset>/<model>/<condition>`` before each (seed,
    cell).  Each cell keeps one ``(seed, report, logs)`` per seed, as
    ``run_condition_detailed`` returns them; reports are averaged and
    round-log lines written in (dataset, model, condition, seed) order, so
    the outputs do not depend on the loop order.  Returns the results rows
    and writes the report (``emit_report``) and optional round log as
    configured; a bad output path (``OutputConfig.check_paths``), one that
    names an input table too, raises ``InvalidConfigError`` before any table
    is read.
    """
    specs = dict(datasets) if datasets is not None else {
        key: builtin_dataset(key, cfg.data_dir) for key in cfg.datasets
    }
    cfg.output.check_paths(specs[key].path for key in cfg.datasets)
    tables = {key: load_dataset(specs[key]) for key in cfg.datasets}
    for data in tables.values():
        check_client_split(data.n_samples, cfg.n_clients, cfg.test_fraction)
    results: dict[tuple[str, str, str], list[tuple[int, MetricsReport, dict[int, RoundLog]]]] = {}
    for key, data in tables.items():
        cells = [(key, model, condition) for model in cfg.models for condition in cfg.conditions]
        for seed in cfg.seeds:
            shared = SharedWork(data, specs[key].schema, cfg.n_clients, cfg.test_fraction, seed)
            for cell in cells:
                if progress is not None:
                    progress("/".join(cell))
                report, logs = run_condition_detailed(cfg, specs[key], data, *cell[1:], seed, shared)
                results.setdefault(cell, []).append((seed, report, logs))
            del shared  # this seed's partitions and models go now, not at the next rebinding

    cell_reports = {cell: mean_reports([r for _, r, _ in runs]) for cell, runs in results.items()}
    rows = build_results_table(cell_reports, cfg.datasets, cfg.models)
    if cfg.output.path is not None:
        Path(cfg.output.path).write_text(emit_report(rows, cfg.output.format), encoding="utf-8")
    if cfg.output.round_log is not None:
        lines = [line for cell, runs in results.items() for seed, _, logs in runs
                 for line in _round_log_lines(*cell, seed, logs)]
        Path(cfg.output.round_log).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    return rows


def _round_log_lines(
    dataset: str, model: str, condition: str, seed: int, logs: Mapping[int, RoundLog]
) -> list[str]:
    lines = []
    for budget in sorted(logs):
        log = logs[budget]
        base = {"dataset": dataset, "model": model, "condition": condition,
                "seed": seed, "budget": budget}
        for client_id in sorted(log.flip_masks):
            mask = log.flip_masks[client_id]
            lines.append(json.dumps({
                **base, "type": "flips", "client": client_id,
                "flipped_rows": np.flatnonzero(mask).tolist(),
            }, sort_keys=True))
        for record in log.records:
            lines.append(json.dumps({
                **base, "type": "round", "round": record.round_index,
                "train_counts": list(record.train_counts),
                "local_train_accuracy": list(record.local_train_accuracy),
                "global": {f.name: getattr(record.global_metrics, f.name)
                           for f in fields(MetricsReport)},
            }, sort_keys=True))
    return lines


def emit_report(rows: tuple[ResultRow, ...], fmt: str) -> str:
    """Render the results rows as ``fmt`` text; byte-identical output for equal rows.

    ``delimited`` and ``human`` lay out one table: the header, then each
    row's cells formatted to its metric's decimals, a missing value blank.
    """
    if fmt == "structured":
        payload = {
            "conventions": list(_CONVENTIONS),
            "columns": list(RESULT_COLUMNS),
            "rows": [
                {
                    "dataset": row.dataset,
                    "model": row.model,
                    "metric": row.metric,
                    "values": dict(zip(RESULT_COLUMNS, row.cells)),
                }
                for row in rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    table = [("Dataset", "Model", "Metric") + RESULT_COLUMNS] + [
        (row.dataset, row.model, row.metric)
        + tuple("" if v is None else f"{v:.{METRICS[row.metric][1]}f}" for v in row.cells)
        for row in rows
    ]
    lines = [f"# {c}" for c in _CONVENTIONS]
    if fmt == "delimited":
        lines += [",".join(cells) for cells in table]
    elif fmt == "human":
        widths = [max(map(len, column)) for column in zip(*table)]
        padded = ["  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() for cells in table]
        lines += [padded[0], "  ".join("-" * w for w in widths), *padded[1:]]
    else:
        raise InvalidConfigError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"
