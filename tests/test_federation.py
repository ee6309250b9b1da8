"""Federated averaging: aggregation algebra, round loops, poisoning wiring."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from _oracles import exact_weighted_average
from _synth import (
    grades_dataset_spec,
    write_dataset_a_like,
    write_dataset_b_like,
    write_grades_csv,
)
from fedtab import federation
from fedtab.attack import AttackConfig, flip_count
from fedtab.dataset import (
    ClientPartition,
    EncodedDataset,
    build_client_partitions,
    concat_datasets,
)
from fedtab.errors import EmptyInputError, InvalidConfigError, ShapeMismatchError
from fedtab.federation import (
    FederationConfig,
    aggregate_forests,
    aggregate_parametric,
    evaluate_global,
    run_federated,
)
from fedtab.metrics import compute_report
from fedtab.models import (
    TRAIN_SETTINGS,
    Forest,
    LinearModel,
    TrainConfig,
    predict_labels,
    predict_scores,
    train_forest,
    train_logreg,
)
from fedtab.schemas import builtin_dataset, load_dataset


def linear(values, bias, kind="logistic", n_classes=2):
    return LinearModel(np.asarray(values, dtype=np.float64), np.asarray(bias, dtype=np.float64), kind, n_classes)


@pytest.fixture(scope="module")
def partitions(tmp_path_factory):
    path = write_grades_csv(tmp_path_factory.mktemp("fed") / "grades.csv", n=300, seed=21)
    spec = grades_dataset_spec(path)
    data = load_dataset(spec)
    return build_client_partitions(data, spec.schema, 3, 0.2, seed=2)[0]


def test_aggregate_hand_value():
    a = linear([[1.0, 2.0]], [0.0])
    b = linear([[3.0, -2.0]], [4.0])
    out = aggregate_parametric([a, b], [1, 3])
    assert out.weights == pytest.approx(np.array([[2.5, -1.0]]), abs=1e-15)
    assert out.bias == pytest.approx(np.array([3.0]), abs=1e-15)


def test_aggregate_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(3)
    models = [linear(rng.normal(0, 1, (1, 6)), rng.normal(0, 1, 1)) for _ in range(5)]
    counts = [3, 17, 5, 9, 1]
    base = aggregate_parametric(models, counts)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(5)
        shuffled = aggregate_parametric([models[i] for i in order], [counts[i] for i in order])
        assert np.array_equal(base.weights, shuffled.weights)
        assert np.array_equal(base.bias, shuffled.bias)


def test_aggregate_matches_exact_rational_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        models = [
            linear(rng.normal(0, 2, (3, 4)), rng.normal(0, 2, 3), n_classes=3)
            for _ in range(k)
        ]
        counts = [int(c) for c in rng.integers(1, 50, k)]
        out = aggregate_parametric(models, counts)
        expected = exact_weighted_average(
            [m.weights.reshape(-1).tolist() for m in models], counts
        )
        assert out.weights.reshape(-1) == pytest.approx(expected, abs=1e-12)


def test_aggregate_single_model_is_bit_identical():
    model = linear([[0.1, 0.2, 0.3]], [0.7])
    out = aggregate_parametric([model], [41])
    assert np.array_equal(out.weights, model.weights)
    assert np.array_equal(out.bias, model.bias)
    assert out is not model


def test_aggregate_of_identical_models_is_idempotent():
    model = linear([[0.1, -0.7, 2.4]], [1.3])
    out = aggregate_parametric([model, model, model], [5, 5, 5])
    assert out.weights == pytest.approx(model.weights, abs=1e-12)
    assert out.bias == pytest.approx(model.bias, abs=1e-12)


def test_aggregate_rejects_bad_inputs():
    model = linear([[1.0]], [0.0])
    with pytest.raises(EmptyInputError):
        aggregate_parametric([], [])
    with pytest.raises(ShapeMismatchError):
        aggregate_parametric([model, model], [1])
    with pytest.raises(ShapeMismatchError):
        aggregate_parametric([model, linear([[1.0, 2.0]], [0.0])], [1, 1])
    with pytest.raises(ShapeMismatchError):
        aggregate_parametric([model, linear([[1.0]], [0.0], kind="svm")], [1, 1])
    with pytest.raises(InvalidConfigError):
        aggregate_parametric([model, model], [1, 0])


def test_aggregate_forests_unions_trees(partitions):
    cfg = TrainConfig(n_trees=3, max_depth=4, seed=1)
    forests = [train_forest(p.train, cfg) for p in partitions]
    union = aggregate_forests(forests)
    assert len(union.trees) == 9
    assert union.trees[:3] == forests[0].trees
    with pytest.raises(EmptyInputError):
        aggregate_forests([])
    # the same trees counting one more class, which no row reached
    wider = tuple(replace(t, counts=np.pad(t.counts, ((0, 0), (0, 1)))) for t in forests[0].trees)
    other = Forest(wider, forests[0].n_classes + 1, forests[0].n_features)
    with pytest.raises(ShapeMismatchError):
        aggregate_forests([forests[0], other])
    narrower = Forest(forests[0].trees, forests[0].n_classes, forests[0].n_features + 1)
    with pytest.raises(ShapeMismatchError):
        aggregate_forests([forests[0], narrower])


def test_evaluate_global_matches_manual_concat(partitions):
    model = train_logreg(partitions[0].train, TrainConfig(learning_rate=0.1, epochs=50, l2=1e-3))
    pooled = concat_datasets([p.test for p in partitions])
    report = evaluate_global(model, pooled)
    manual = compute_report(
        predict_labels(model, pooled.features),
        pooled.labels,
        predict_scores(model, pooled.features),
        pooled.n_classes,
    )
    assert report == manual
    assert report.n_samples == sum(p.test.n_samples for p in partitions)


def _fed_cfg(model_kind, rounds, epochs, seed=4, **train_kwargs):
    defaults = dict(learning_rate=0.1, l2=1e-3)
    if model_kind == "forest":
        defaults = dict(n_trees=5, max_depth=6, min_leaf=2)
    defaults.update(train_kwargs)
    return FederationConfig(
        model_kind=model_kind,
        rounds=rounds,
        train_cfg=TrainConfig(epochs=epochs, seed=seed, **defaults),
    )


def test_run_federated_logs_every_round(partitions):
    model, log = run_federated(partitions, _fed_cfg("logistic", rounds=3, epochs=20))
    assert [r.round_index for r in log.records] == [1, 2, 3]
    for record in log.records:
        assert record.train_counts == tuple(p.train.n_samples for p in partitions)
        assert len(record.local_train_accuracy) == 3
        assert all(0.0 <= a <= 100.0 for a in record.local_train_accuracy)
    assert isinstance(model, LinearModel)
    assert log.flip_masks == {}


def test_run_federated_improves_over_rounds(partitions):
    _, log = run_federated(partitions, _fed_cfg("logistic", rounds=6, epochs=50))
    assert log.records[-1].global_metrics.accuracy_pct >= 80.0


def test_run_federated_is_deterministic(partitions):
    cfg = _fed_cfg("svm", rounds=2, epochs=10, learning_rate=0.05)
    a, _ = run_federated(partitions, cfg)
    b, _ = run_federated(partitions, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_forest_rounds_only_extend_the_log(partitions, monkeypatch):
    calls = {"train_forest": 0, "evaluate_global": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(federation, "train_forest", counted(train_forest))
    monkeypatch.setattr(federation, "evaluate_global", counted(evaluate_global))
    cfg = _fed_cfg("forest", rounds=3, epochs=1)
    model, log = run_federated(partitions, cfg)
    assert isinstance(model, Forest)
    assert len(model.trees) == 15  # 3 clients x 5 trees
    assert calls == {"train_forest": 3, "evaluate_global": 1}  # one forest per client
    assert [r.round_index for r in log.records] == [1, 2, 3]
    first = log.records[0]
    for record in log.records[1:]:
        assert record.global_metrics == first.global_metrics
        assert record.local_train_accuracy == first.local_train_accuracy


def _count_pooling(monkeypatch):
    """Count concat_datasets calls and record each evaluate_global's test set."""
    concat_calls, scored = [], []

    def counted_concat(parts):
        concat_calls.append(len(parts))
        return concat_datasets(parts)

    def recorded_evaluate(model, test):
        scored.append(test)
        return evaluate_global(model, test)

    monkeypatch.setattr(federation, "concat_datasets", counted_concat)
    monkeypatch.setattr(federation, "evaluate_global", recorded_evaluate)
    return concat_calls, scored


def test_linear_run_pools_the_test_sets_once(partitions, monkeypatch):
    concat_calls, scored = _count_pooling(monkeypatch)
    model, log = run_federated(partitions, _fed_cfg("logistic", rounds=5, epochs=2))
    assert concat_calls == [3]
    assert len(scored) == 5
    assert all(test is scored[0] for test in scored)
    pooled = concat_datasets([p.test for p in partitions])  # client order
    assert np.array_equal(scored[0].features, pooled.features)
    assert np.array_equal(scored[0].labels, pooled.labels)
    assert log.records[-1].global_metrics == evaluate_global(model, pooled)


def test_one_partition_run_scores_its_own_test_set(partitions, monkeypatch):
    concat_calls, scored = _count_pooling(monkeypatch)
    run_federated([partitions[1]], _fed_cfg("svm", rounds=3, epochs=2))
    assert concat_calls == []
    assert len(scored) == 3
    assert all(test is partitions[1].test for test in scored)


def test_run_federated_rejects_no_partitions():
    with pytest.raises(EmptyInputError):
        run_federated([], _fed_cfg("logistic", rounds=1, epochs=1))


@pytest.mark.parametrize("poisoned", [False, True], ids=["clean", "poisoned"])
@pytest.mark.parametrize("model_kind", ["logistic", "svm"])
def test_shorter_run_is_a_prefix_of_a_longer_one(partitions, model_kind, poisoned):
    attack = None
    if poisoned:
        attack = AttackConfig(flip_fraction=0.5, malicious_clients=frozenset({0}), seed=6)
    _, full = run_federated(partitions, _fed_cfg(model_kind, rounds=4, epochs=3), attack)
    for rounds in (1, 2, 3):
        _, short = run_federated(
            partitions, _fed_cfg(model_kind, rounds=rounds, epochs=3), attack
        )
        assert len(short.records) == rounds
        assert short.records == full.records[:rounds]  # RoundRecord equality is field by field
        assert sorted(short.flip_masks) == sorted(full.flip_masks) == ([0] if poisoned else [])
        for client, mask in full.flip_masks.items():
            assert np.array_equal(short.flip_masks[client], mask)


def test_single_client_logistic_equals_centralized_chain(partitions):
    solo = [partitions[0]]
    cfg = _fed_cfg("logistic", rounds=4, epochs=25, seed=8)
    fed_model, _ = run_federated(solo, cfg)
    central = train_logreg(
        partitions[0].train, TrainConfig(learning_rate=0.1, epochs=100, l2=1e-3, seed=8)
    )
    assert np.array_equal(fed_model.weights, central.weights)
    assert np.array_equal(fed_model.bias, central.bias)


def test_poisoned_run_flips_only_malicious_clients(partitions):
    attack = AttackConfig(flip_fraction=0.5, malicious_clients=frozenset({0}), seed=6)
    before = [p.train.labels.copy() for p in partitions]
    _, log = run_federated(partitions, _fed_cfg("logistic", rounds=2, epochs=10), attack)
    assert set(log.flip_masks) == {0}
    mask = log.flip_masks[0]
    assert int(mask.sum()) == flip_count(partitions[0].train.n_samples, 0.5)
    # inputs must not be mutated: the attack works on a copy
    for p, labels in zip(partitions, before):
        assert np.array_equal(p.train.labels, labels)


def test_poisoning_changes_the_model(partitions):
    clean, _ = run_federated(partitions, _fed_cfg("logistic", rounds=2, epochs=20))
    attack = AttackConfig(flip_fraction=0.5, malicious_clients=frozenset({0}), seed=6)
    poisoned, _ = run_federated(partitions, _fed_cfg("logistic", rounds=2, epochs=20), attack)
    assert not np.array_equal(clean.weights, poisoned.weights)


def test_federation_config_has_three_fields_and_checks_them():
    assert [f.name for f in fields(FederationConfig)] == ["model_kind", "rounds", "train_cfg"]
    for kind, rounds, epochs in (("tree", 1, 1), ("svm", 0, 1), ("svm", 1, 0)):
        with pytest.raises(InvalidConfigError):
            FederationConfig(kind, rounds, TrainConfig(epochs=epochs))
    FederationConfig("forest", 1, TrainConfig(epochs=1))


def test_client_configs_are_derived_once_before_round_one(partitions, monkeypatch):
    derived = []
    real_replace = federation.replace

    def counting_replace(obj, **changes):
        if isinstance(obj, TrainConfig):
            derived.append(changes)
        return real_replace(obj, **changes)

    monkeypatch.setattr(federation, "replace", counting_replace)
    run_federated(partitions, _fed_cfg("svm", rounds=3, epochs=2, seed=9))
    assert derived == [{"seed": 9 ^ p.client_id} for p in partitions]


def _rows(data, start, stop):
    return EncodedDataset(
        data.features[start:stop], data.labels[start:stop], data.n_classes, data.feature_names
    )


def _shared_scaling_clients(clients, pooled):
    """The clients holding their slices of the pooled partition, scaled by the pooled fit."""
    shared, train_at, test_at = [], 0, 0
    for c in clients:
        train_end, test_end = train_at + c.train.n_samples, test_at + c.test.n_samples
        assert np.array_equal(pooled.train_rows[train_at:train_end], c.train_rows)
        assert np.array_equal(pooled.test_rows[test_at:test_end], c.test_rows)
        shared.append(ClientPartition(
            c.client_id, _rows(pooled.train, train_at, train_end),
            _rows(pooled.test, test_at, test_end), c.train_rows, c.test_rows,
        ))
        train_at, test_at = train_end, test_end
    assert (train_at, test_at) == (pooled.train.n_samples, pooled.test.n_samples)
    return shared


@pytest.mark.parametrize(
    "key, write, n",
    [("A", write_dataset_a_like, 395), ("B", write_dataset_b_like, 4424)],
    ids=["A", "B"],
)
def test_shared_scaling_fedavg_is_central_gradient_descent(tmp_path, key, write, n):
    # With one full-batch epoch per round, a FedAvg round is
    # sum_k (n_k / n) (w - lr g_k) = w - lr g_pooled: one central step.  So
    # with every client scaled by the pooled fit the two runs differ only by
    # rounding; with each client scaled by its own fit they do not.
    spec = builtin_dataset(key, str(tmp_path))
    write(spec.path, n=n)
    data = load_dataset(spec)
    clients, pooled = build_client_partitions(data, spec.schema, 3, 0.2, seed=0)
    rounds, tolerance = 300, 1e-12
    cfg = TrainConfig(**TRAIN_SETTINGS["logistic"])
    central = train_logreg(pooled.train, replace(cfg, epochs=rounds))
    fed_cfg = FederationConfig("logistic", rounds, replace(cfg, epochs=1))

    def gap(partitions):
        model, _ = run_federated(partitions, fed_cfg, local_accuracy=False)
        return max(np.abs(model.weights - central.weights).max(),
                   np.abs(model.bias - central.bias).max())

    assert gap(_shared_scaling_clients(clients, pooled)) <= tolerance
    assert gap(clients) > 1e6 * tolerance
