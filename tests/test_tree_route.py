"""The compiled route against ``models._leaf_index``, and ranks kept per block.

``predict_scores`` finds each row's leaf in one C call per tree where the
kernels load and pass the forest's checks, and level by level in numpy
(``models._leaf_index``) where they do not; both must give the same leaves.
``train_forest`` ranks a read-only block's features once for all the
forests grown on it, and must rank a block again whenever its values could
have changed.
"""

from __future__ import annotations

import numpy as np
import pytest

from _synth import write_dataset_a_like, write_dataset_b_like
from fedtab import kernel
from fedtab.config import config_from_dict
from fedtab.dataset import EncodedDataset
from fedtab.experiment import run_suite
from fedtab.models import (
    Forest,
    TrainConfig,
    Tree,
    _leaf_index,
    predict_scores,
    train_forest,
)
from fedtab.schemas import DATA_FILES, EXPECTED_ROWS, builtin_dataset, load_dataset


@pytest.fixture(scope="module")
def route():
    """The compiled route, taken before ``each_path`` can force the kernels off."""
    router = kernel.leaf_router()
    if router is None:
        pytest.skip(f"compiled route unavailable ({kernel.path()})")
    return router


def _scores_by_leaf_index(forest, X):
    total = np.zeros((X.shape[0], forest.n_classes))
    for tree in forest.trees:
        total += (tree.counts / tree.counts.sum(axis=1, keepdims=True))[_leaf_index(tree, X)]
    return total / len(forest.trees)


def _assert_routes_match(route, forest, X):
    for tree in forest.trees:
        assert route(tree, X).tobytes() == _leaf_index(tree, X).tobytes()
    scores = predict_scores(forest, X)
    assert scores.tobytes() == _scores_by_leaf_index(forest, X).tobytes()


@pytest.mark.parametrize("table", ["A", "B"])
def test_compiled_leaves_are_leaf_index_on_forests_grown_on_each_path(
    route, each_path, table, tmp_path
):
    write = write_dataset_a_like if table == "A" else write_dataset_b_like
    write(tmp_path / DATA_FILES[table], n=EXPECTED_ROWS[table])
    data = load_dataset(builtin_dataset(table, tmp_path))
    forest = train_forest(data, TrainConfig(n_trees=2, seed=3))
    assert max(t.feature.size for t in forest.trees) > 50  # trees of real depth
    _assert_routes_match(route, forest, data.features)


def _stump(feature, threshold, n_features):
    """One split on ``feature`` at ``threshold``: class 0 left, class 1 right."""
    tree = Tree(
        np.array([feature, -1, -1]), np.array([threshold, 0.0, 0.0]), np.array([2, -1, -1]),
        np.array([[3, 2], [3, 0], [0, 2]]),
    )
    return Forest((tree,), 2, n_features)


def test_compiled_leaves_are_leaf_index_at_thresholds_zeros_leaves_and_no_rows(route, each_path):
    lo = np.nextafter(1.0, 2.0)
    at_threshold = np.array([[0.5, 1.0], [0.5, lo], [np.nextafter(0.5, 1.0), 0.0], [0.0, 2.0]])
    signed_zeros = np.array([[0.0], [-0.0], [np.nextafter(0.0, 1.0)], [-np.nextafter(0.0, 1.0)]])
    one_leaf = Forest((Tree(*(np.array([v]) for v in (-1, 0.0, -1)), np.array([[4, 1]])),), 2, 2)
    cases = [
        (_stump(0, 0.5, 2), at_threshold),  # row 0 and 1 at the threshold go left
        (_stump(1, lo, 2), at_threshold),
        (_stump(0, 0.0, 1), signed_zeros),  # -0.0 <= 0.0 and 0.0 <= -0.0
        (_stump(0, -0.0, 1), signed_zeros),
        (one_leaf, at_threshold),
        (_stump(0, 0.5, 2), np.empty((0, 2))),
        (one_leaf, np.empty((0, 2))),
    ]
    for forest, X in cases:
        _assert_routes_match(route, forest, X)
    assert route(_stump(0, 0.5, 2).trees[0], at_threshold).tolist() == [1, 1, 2, 1]
    assert route(_stump(0, -0.0, 1).trees[0], signed_zeros).tolist() == [1, 1, 2, 1]
    assert predict_scores(one_leaf, np.empty((0, 2))).shape == (0, 2)


def test_the_route_refuses_what_it_would_misread(route):
    forest = _stump(1, 0.5, 2)
    tree = forest.trees[0]
    with pytest.raises(ValueError, match="expected a models.Tree"):
        route(object(), np.zeros((2, 2)))
    for X in (np.zeros((2, 2), dtype=np.float32), np.zeros((2, 4))[:, ::2], np.zeros(2)):
        with pytest.raises(ValueError, match="C-contiguous 2-d float64"):
            route(tree, X)
    with pytest.raises(ValueError, match="past the block's 1"):
        route(tree, np.zeros((2, 1)))
    # predict_scores hands the route a contiguous copy of a strided block
    X = np.array([[0.0, 0.5, 9.0, 1.0], [0.0, 2.0, 9.0, 0.0]])[:, ::2]
    assert predict_scores(forest, X).tolist() == [[0.0, 1.0], [0.0, 1.0]]


def _count_ranked_blocks(monkeypatch):
    """Record every block ``rank_features`` ranks; the list keeps them alive."""
    ranked = []
    rank = kernel._Kernel.rank_features
    monkeypatch.setattr(
        kernel._Kernel, "rank_features", lambda k, X: ranked.append(X) or rank(k, X)
    )
    return ranked


def test_the_pooled_block_is_ranked_once_for_both_central_forests(route, tmp_path, monkeypatch):
    write_dataset_b_like(tmp_path / DATA_FILES["B"], n=150)
    grown = []
    grower = kernel._Kernel.tree_grower
    monkeypatch.setattr(
        kernel._Kernel, "tree_grower", lambda k, X, *rest: grown.append(X) or grower(k, X, *rest)
    )
    ranked = _count_ranked_blocks(monkeypatch)
    run_suite(config_from_dict({
        "data_dir": str(tmp_path), "datasets": ["B"], "models": ["forest"],
        "conditions": ["central_clean", "central_poisoned"],
        "train_overrides": {"forest": {"n_trees": 2}},
        "output": {"path": str(tmp_path / "report.csv"), "format": "delimited"},
    }))
    pooled = [X for X in grown if X.shape[0] == max(b.shape[0] for b in grown)]
    assert len(pooled) == 2 and pooled[0] is pooled[1]  # one block, two forests
    assert [X for X in ranked if X is pooled[0]] == [pooled[0]]


def _forest_block(seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(60, 5)) * 2.0)
    y = (X[:, 0] + rng.normal(size=60) > 0).astype(np.int64)
    return X, y


def test_a_block_that_may_have_changed_is_ranked_again(route, monkeypatch):
    ranked = _count_ranked_blocks(monkeypatch)
    names = tuple(f"x{j}" for j in range(5))
    cfg = TrainConfig(n_trees=2, max_depth=6, seed=1)
    X, y = _forest_block(0)
    before = train_forest(EncodedDataset(X, y, 2, names), cfg)
    X[:] = _forest_block(1)[0]  # the same writeable block, new values in place
    after = train_forest(EncodedDataset(X, y, 2, names), cfg)
    fresh = train_forest(EncodedDataset(X.copy(), y, 2, names), cfg)
    assert [block is X for block in ranked] == [True, True, False]
    assert before.trees[0].threshold.tobytes() != after.trees[0].threshold.tobytes()
    for got, want in zip(after.trees, fresh.trees):
        assert got.threshold.tobytes() == want.threshold.tobytes()
        assert got.feature.tobytes() == want.feature.tobytes()

    # a read-only view is ranked again: its base can still be written
    view = X[:]
    view.flags.writeable = False
    for _ in range(2):
        train_forest(EncodedDataset(view, y, 2, names), cfg)
    assert [block is view for block in ranked[3:]] == [True, True]

    # a read-only block that owns its data is ranked once
    frozen = X.copy()
    frozen.flags.writeable = False
    for _ in range(2):
        again = train_forest(EncodedDataset(frozen, y, 2, names), cfg)
    assert [block is frozen for block in ranked[5:]] == [True]
    assert again.trees[0].threshold.tobytes() == fresh.trees[0].threshold.tobytes()
