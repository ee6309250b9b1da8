"""Federated averaging over the classifiers in models.py.

One round: every client trains locally from the current global parameters,
then the server combines the results.  Linear models are averaged entry by
entry, weighted by client training-set size; forests are combined by tree
union.  Each entry of the average is accumulated with math.fsum, so the
result is exact for the given weights and therefore independent of client
order.  Forest clients train once and the union is the same every round
(see run_federated).

Poisoned clients flip a share of their local training labels once, before
round one; evaluation labels are never altered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackConfig, flip_labels
from .dataset import ClientPartition, EncodedDataset, concat_datasets, derive_seed
from .errors import EmptyInputError, InvalidConfigError, ShapeMismatchError
from .metrics import MetricsReport, accuracy, compute_report
from .models import (
    MODEL_KINDS,
    Forest,
    LinearModel,
    Model,
    TrainConfig,
    predict_labels,
    predict_scores,
    train_forest,
    train_logreg,
    train_svm,
)


@dataclass(frozen=True)
class FederationConfig:
    """A federation's model, round count and local-training settings.

    ``train_cfg.epochs`` is the local epochs each client trains per round and
    ``train_cfg.seed`` the master seed that client seeds derive from.
    """

    model_kind: str
    rounds: int
    train_cfg: TrainConfig

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise InvalidConfigError(f"unknown model_kind {self.model_kind!r}")
        if self.rounds < 1:
            raise InvalidConfigError(f"rounds must be at least 1, got {self.rounds}")
        if self.train_cfg.epochs < 1:
            raise InvalidConfigError(f"local epochs must be at least 1, got {self.train_cfg.epochs}")


@dataclass(frozen=True)
class RoundRecord:
    """Server-side log entry for one completed round."""

    round_index: int
    train_counts: tuple[int, ...]
    local_train_accuracy: tuple[float, ...]  # empty when the run measured none
    global_metrics: MetricsReport


@dataclass
class RoundLog:
    """Per-round records plus the flip masks applied before round one."""

    records: list[RoundRecord] = field(default_factory=list)
    flip_masks: dict[int, np.ndarray] = field(default_factory=dict)


def aggregate_parametric(models: list[LinearModel], counts: list[int]) -> LinearModel:
    """Sample-count-weighted average of linear models, exact per entry.

    Weights are counts / total.  Each output entry is a single fsum over the
    weighted client entries, so client order cannot change the result and a
    single-model aggregate returns that model's parameters bit for bit.
    """
    if not models:
        raise EmptyInputError("no models to aggregate")
    if len(counts) != len(models):
        raise ShapeMismatchError(f"{len(models)} models but {len(counts)} counts")
    if any(c <= 0 for c in counts):
        raise InvalidConfigError(f"client counts must be positive, got {counts}")
    head = models[0]
    for m in models[1:]:
        if m.kind != head.kind or m.n_classes != head.n_classes:
            raise ShapeMismatchError("models disagree on kind or class count")
        if m.weights.shape != head.weights.shape:
            raise ShapeMismatchError("models disagree on weight shape")
    if len(models) == 1:
        return LinearModel(head.weights.copy(), head.bias.copy(), head.kind, head.n_classes)

    total = sum(counts)
    shares = [c / total for c in counts]
    stacked_w = np.stack([m.weights.reshape(-1) * s for m, s in zip(models, shares)])
    stacked_b = np.stack([m.bias * s for m, s in zip(models, shares)])
    weights = np.array(list(map(math.fsum, stacked_w.T.tolist())))
    bias = np.array(list(map(math.fsum, stacked_b.T.tolist())))
    return LinearModel(
        weights.reshape(head.weights.shape), bias, head.kind, head.n_classes
    )


def aggregate_forests(forests: list[Forest]) -> Forest:
    """Union of all client trees; replaces any previous global forest."""
    if not forests:
        raise EmptyInputError("no forests to aggregate")
    head = forests[0]
    for f in forests[1:]:
        if f.n_classes != head.n_classes or f.n_features != head.n_features:
            raise ShapeMismatchError("forests disagree on dimensions")
    trees = tuple(t for f in forests for t in f.trees)
    return Forest(trees, head.n_classes, head.n_features)


def evaluate_global(model: Model, test: EncodedDataset) -> MetricsReport:
    """Score one model on ``test``, the pooled, untouched client test sets.

    ``run_federated`` pools them once per run and passes the same set to
    every round's call.
    """
    scores = predict_scores(model, test.features)
    pred = np.argmax(scores, axis=1).astype(np.int64)  # ties to the lowest class, as predict_labels
    return compute_report(pred, test.labels, scores, test.n_classes)


def _train_local(
    kind: str, data: EncodedDataset, train_cfg: TrainConfig, init: Model | None, scored: bool
) -> tuple[Model, float | None]:
    """One client's local model and, when ``scored``, its accuracy on the rows it trained on."""
    if kind == "forest":
        local = train_forest(data, train_cfg)
    elif kind == "logistic":
        local = train_logreg(data, train_cfg, init=init)
    else:
        local = train_svm(data, train_cfg, init=init)
    if not scored:
        return local, None
    return local, accuracy(predict_labels(local, data.features), data.labels)


def run_federated(
    partitions: list[ClientPartition],
    cfg: FederationConfig,
    attack: AttackConfig | None = None,
    round_one: dict | None = None,
    *,
    local_accuracy: bool = True,
) -> tuple[Model, RoundLog]:
    """Run the configured number of rounds and return (global model, log).

    ``cfg.train_cfg`` holds the local-training settings: its ``epochs``
    are the local epochs per round and its ``seed`` the master seed.  Each
    client trains with a copy seeded ``derive_seed("train", master seed,
    client id)``; that copy and the client's flip config (seeded
    ``derive_seed("flip", attack seed, client id)``) are derived once,
    before round one.  A forest federation takes one round: client forests
    ignore the global model and epochs, so each client trains once, the
    union is evaluated once, and every later round repeats round one's
    record.

    ``round_one``, when given, holds round-one local models (with their
    local train accuracy) of earlier runs on these same ``partitions``;
    this run reuses the ones it needs and adds the ones it trains.  A
    round-one model starts from no global model, so it is a pure function
    of the client's training rows and its ``TrainConfig``.  The key is
    (model kind, client id, flip config or None, that ``TrainConfig``):
    the partition fixes the clean rows, the flip config fixes which of them
    are flipped, and the ``TrainConfig`` carries the derived seed and the
    local epochs.  So a benign client's round one serves clean and
    poisoned runs alike.  (Runs that differ only in ``rounds`` are prefixes
    of one another; ``run_condition_detailed`` runs the longest once.)  One
    dict must never serve two partition sets.

    With ``local_accuracy=False`` no local model predicts its training rows
    and every record's ``local_train_accuracy`` is empty; ``round_one`` must
    then be None, since its entries carry the accuracy.

    Every round's global model is scored by ``evaluate_global`` on the
    client test sets pooled in client order.  The pool is built once, when
    round one's models are trained; a one-client run (a central cell)
    scores that client's test set itself, uncopied.
    """
    if not local_accuracy and round_one is not None:
        raise ValueError("round_one holds local accuracies: pass None without them")
    log = RoundLog()
    round_one = {} if round_one is None else round_one
    clients = []  # (partition, train set after any flips, flip config or None, TrainConfig)
    for p in partitions:
        data, flip_cfg = p.train, None
        if attack is not None and p.client_id in attack.malicious_clients:
            flip_cfg = replace(attack, seed=derive_seed("flip", attack.seed, p.client_id))
            labels, log.flip_masks[p.client_id] = flip_labels(data.labels, data.n_classes, flip_cfg)
            data = EncodedDataset(data.features, labels, data.n_classes, data.feature_names)
        seed = derive_seed("train", cfg.train_cfg.seed, p.client_id)
        clients.append((p, data, flip_cfg, replace(cfg.train_cfg, seed=seed)))

    pooled_test: EncodedDataset | None = None
    global_model: Model | None = None
    counts = [p.train.n_samples for p in partitions]
    trained_rounds = 1 if cfg.model_kind == "forest" else cfg.rounds
    for round_index in range(1, trained_rounds + 1):
        locals_: list[Model] = []
        local_acc = []
        for p, data, flip_cfg, train_cfg in clients:
            if global_model is None:
                key = (cfg.model_kind, p.client_id, flip_cfg, train_cfg)
                if key not in round_one:
                    round_one[key] = _train_local(
                        cfg.model_kind, data, train_cfg, None, local_accuracy
                    )
                local, acc = round_one[key]
            else:
                local, acc = _train_local(
                    cfg.model_kind, data, train_cfg, global_model, local_accuracy
                )
            locals_.append(local)
            local_acc.append(acc)

        if cfg.model_kind == "forest":
            global_model = aggregate_forests(locals_)
        else:
            global_model = aggregate_parametric(locals_, counts)
        if pooled_test is None:  # after round one trains: no client forest grows beside the pool
            if len(partitions) == 1:
                pooled_test = partitions[0].test
            else:
                pooled_test = concat_datasets([p.test for p in partitions])
        log.records.append(
            RoundRecord(
                round_index=round_index,
                train_counts=tuple(counts),
                local_train_accuracy=tuple(local_acc) if local_accuracy else (),
                global_metrics=evaluate_global(global_model, pooled_test),
            )
        )
    log.records.extend(
        replace(log.records[0], round_index=r) for r in range(trained_rounds + 1, cfg.rounds + 1)
    )
    return global_model, log
