"""Model persistence: bit-exact round trips and format validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from _synth import blob_dataset
from fedtab.models import LinearModel, TrainConfig, predict_scores, train_forest, train_svm
from fedtab.serialize import (
    ModelFormatError,
    dumps,
    load_model,
    loads,
    model_to_dict,
    save_model,
)


def test_linear_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    for kind in ("logistic", "svm"):
        for n_classes, rows in ((2, 1), (3, 3)):
            model = LinearModel(rng.normal(0, 3, (rows, 7)), rng.normal(0, 3, rows), kind, n_classes)
            back = loads(dumps(model))
            assert isinstance(back, LinearModel)
            assert back.kind == kind and back.n_classes == n_classes
            assert np.array_equal(back.weights, model.weights)
            assert np.array_equal(back.bias, model.bias)


def test_forest_round_trip_preserves_predictions():
    data = blob_dataset(40, n_classes=3, seed=2)
    forest = train_forest(data, TrainConfig(n_trees=6, max_depth=5, seed=4))
    back = loads(dumps(forest))
    assert dumps(back) == dumps(forest)
    assert np.array_equal(predict_scores(back, data.features), predict_scores(forest, data.features))


def test_save_and_load_files(tmp_path):
    data = blob_dataset(20, n_classes=2, seed=5)
    model = train_svm(data, TrainConfig(learning_rate=0.05, epochs=5, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.bias, model.bias)


def test_rejects_malformed_payloads():
    with pytest.raises(ModelFormatError):
        loads("not json at all {")
    with pytest.raises(ModelFormatError):
        loads('{"format_version": 99, "model": "linear"}')
    with pytest.raises(ModelFormatError):
        loads('{"format_version": 2, "model": "spline"}')
    good = model_to_dict(
        LinearModel(np.zeros((1, 2)), np.zeros(1), "logistic", 2)
    )
    del good["weights"]
    with pytest.raises(ModelFormatError):
        loads(json.dumps(good))


@pytest.mark.parametrize("field,value", [
    ("weights", [[0.0, 1.0], [1.0, 0.0]]),  # two rows for a binary model
    ("weights", [["x", 1.0]]),
    ("weights", [[0.0], [1.0, 2.0]]),
    ("weights", [[float("nan"), 1.0]]),
    ("bias", [0.0, 0.0]),
    ("kind", "perceptron"),
    ("n_classes", "two"),
], ids=["extra_row", "not_a_number", "ragged", "nan", "bias_too_long", "unknown_kind",
        "n_classes_not_a_number"])
def test_rejects_malformed_linear_payloads(field, value):
    payload = model_to_dict(LinearModel(np.zeros((1, 2)), np.zeros(1), "logistic", 2))
    loads(json.dumps(payload))  # the untouched payload loads
    payload[field] = value
    with pytest.raises(ModelFormatError):
        loads(json.dumps(payload))


def _stored_forest():
    data = blob_dataset(30, n_classes=3, seed=3, spread=3.0)
    payload = model_to_dict(train_forest(data, TrainConfig(n_trees=2, max_depth=4, seed=1)))
    tree = payload["trees"][1]
    assert tree["feature"][0] >= 0 and tree["feature"][tree["left"][0]] >= 0
    return payload, tree


def _child_before_parent(payload, tree):
    tree["right"][tree["left"][0]] = 0


def _child_is_parent(payload, tree):
    tree["left"][0] = 0


def _child_past_end(payload, tree):
    tree["right"][0] = len(tree["feature"])


def _feature_too_large(payload, tree):
    tree["feature"][0] = payload["n_features"]


def _feature_below_leaf_marker(payload, tree):
    tree["feature"][0] = -2


def _unequal_lengths(payload, tree):
    tree["threshold"].pop()


def _counts_too_wide(payload, tree):
    tree["counts"] = [row + [0] for row in tree["counts"]]


def _counts_too_narrow(payload, tree):
    tree["counts"] = [row[:-1] for row in tree["counts"]]


def _ragged_counts(payload, tree):
    tree["counts"][0] = tree["counts"][0] + [0]


def _nested_arrays(payload, tree):
    tree["left"] = [tree["left"]]


def _version_1_nested_tree(payload, tree):
    payload["format_version"] = 1
    payload["trees"] = [{"feature": 0, "threshold": 0.5, "left": {"counts": [1, 0, 0]},
                         "right": {"counts": [0, 1, 0]}}]


def _empty_leaf_counts(payload, tree):
    # a leaf no training row reached would score 0 / 0 for every class
    leaf = tree["feature"].index(-1)
    tree["counts"][leaf] = [0] * payload["n_classes"]


def _negative_counts(payload, tree):
    tree["counts"][0][0] = -1


@pytest.mark.parametrize("corrupt", [
    _child_before_parent, _child_is_parent, _child_past_end, _feature_too_large,
    _feature_below_leaf_marker, _unequal_lengths, _counts_too_wide, _counts_too_narrow,
    _ragged_counts, _nested_arrays, _version_1_nested_tree, _empty_leaf_counts,
    _negative_counts,
], ids=lambda f: f.__name__.lstrip("_"))
def test_rejects_tree_arrays_the_walk_cannot_follow(corrupt):
    payload, tree = _stored_forest()
    loads(json.dumps(payload))  # the untouched payload loads
    corrupt(payload, tree)
    with pytest.raises(ModelFormatError):
        loads(json.dumps(payload))
