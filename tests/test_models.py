"""Classifier training: hand-computed steps, invariants, and learnability."""

from __future__ import annotations

import copy
import dataclasses
import gc
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (
    assert_same_tree_bytes,
    assert_trees_match,
    assert_walkable_tree,
    hinge_objective,
    logistic_loss,
    per_feature_forest,
    reduction_softmax,
    vectorized_svm,
)
from _synth import blob_dataset
from fedtab import kernel
from fedtab.dataset import EncodedDataset
from fedtab.errors import InvalidConfigError, ShapeMismatchError
from fedtab.models import (
    TRAIN_SETTINGS,
    Forest,
    LinearModel,
    TrainConfig,
    Tree,
    _grow_tree,
    _softmax,
    _subset_size,
    logistic_gradient,
    predict_labels,
    predict_scores,
    train_forest,
    train_logreg,
    train_svm,
)


def single_sample(x, label, n_classes=2):
    arr = np.asarray([x], dtype=np.float64)
    names = tuple(f"x{j}" for j in range(arr.shape[1]))
    return EncodedDataset(arr, np.asarray([label]), n_classes, names)


def test_logreg_single_step_hand_value():
    # z = 0 so p = 0.5; gradient (p - y) x = -0.5; one step of lr 1 lands at 0.5
    data = single_sample([1.0], 1)
    model = train_logreg(data, TrainConfig(learning_rate=1.0, epochs=1, l2=0.0))
    assert model.weights.tolist() == [[0.5]]
    assert model.bias.tolist() == [0.5]


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for n_classes in (2, 3):
        rows = 1 if n_classes == 2 else n_classes
        X = rng.normal(0, 1, (12, 4))
        y = rng.integers(0, n_classes, 12)
        W = rng.normal(0, 0.5, (rows, 4))
        b = rng.normal(0, 0.5, rows)
        model = LinearModel(W, b, "logistic", n_classes)
        grad_w, grad_b = logistic_gradient(model, X, y, l2=0.01)
        eps = 1e-6
        for i in range(rows):
            for j in range(4):
                up, down = W.copy(), W.copy()
                up[i, j] += eps
                down[i, j] -= eps
                numeric = (
                    logistic_loss(LinearModel(up, b, "logistic", n_classes), X, y, 0.01)
                    - logistic_loss(LinearModel(down, b, "logistic", n_classes), X, y, 0.01)
                ) / (2 * eps)
                assert abs(grad_w[i, j] - numeric) < 1e-4
            upb, downb = b.copy(), b.copy()
            upb[i] += eps
            downb[i] -= eps
            numeric = (
                logistic_loss(LinearModel(W, upb, "logistic", n_classes), X, y, 0.01)
                - logistic_loss(LinearModel(W, downb, "logistic", n_classes), X, y, 0.01)
            ) / (2 * eps)
            assert abs(grad_b[i] - numeric) < 1e-4


def test_logreg_loss_decreases():
    data = blob_dataset(40, n_classes=2, seed=4)
    cfg = TrainConfig(learning_rate=0.1, epochs=0, l2=1e-3)
    model = train_logreg(data, cfg)
    losses = [logistic_loss(model, data.features, data.labels, 1e-3)]
    for _ in range(6):
        model = train_logreg(data, TrainConfig(learning_rate=0.1, epochs=50, l2=1e-3), init=model)
        losses.append(logistic_loss(model, data.features, data.labels, 1e-3))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_logreg_warm_start_chains_bit_exactly():
    data = blob_dataset(30, n_classes=2, seed=9)
    whole = train_logreg(data, TrainConfig(learning_rate=0.1, epochs=100, l2=1e-3))
    half = train_logreg(data, TrainConfig(learning_rate=0.1, epochs=50, l2=1e-3))
    resumed = train_logreg(data, TrainConfig(learning_rate=0.1, epochs=50, l2=1e-3), init=half)
    assert np.array_equal(whole.weights, resumed.weights)
    assert np.array_equal(whole.bias, resumed.bias)


def test_epochs_zero_is_identity():
    data = blob_dataset(10, n_classes=3, seed=1)
    for train in (train_logreg, train_svm):
        kind = "logistic" if train is train_logreg else "svm"
        init = LinearModel(
            np.full((3, data.n_features), 0.25), np.array([1.0, -1.0, 0.0]), kind, 3
        )
        out = train(data, TrainConfig(learning_rate=0.1, epochs=0), init=init)
        assert np.array_equal(out.weights, init.weights)
        assert np.array_equal(out.bias, init.bias)
        assert out is not init


def test_init_shape_mismatch_rejected():
    data = blob_dataset(10, n_classes=2, n_features=5, seed=1)
    wrong_width = LinearModel(np.zeros((1, 4)), np.zeros(1), "logistic", 2)
    with pytest.raises(ShapeMismatchError):
        train_logreg(data, TrainConfig(epochs=1), init=wrong_width)
    wrong_kind = LinearModel(np.zeros((1, 5)), np.zeros(1), "svm", 2)
    with pytest.raises(ShapeMismatchError):
        train_logreg(data, TrainConfig(epochs=1), init=wrong_kind)


def test_svm_single_step_hand_value():
    # margin 0 < 1 violates, so w += lr * y * x and b += lr * y
    data = single_sample([1.0, 0.0], 1)
    model = train_svm(data, TrainConfig(learning_rate=1.0, epochs=1, l2=0.0, seed=0))
    assert model.weights.tolist() == [[1.0, 0.0]]
    assert model.bias.tolist() == [1.0]


def test_svm_decay_only_step_hand_value():
    # margin 1*(1*2 + 0.5) = 2.5 >= 1: only the weight decay applies
    data = single_sample([2.0, 0.0], 1)
    init = LinearModel(np.array([[1.0, 0.0]]), np.array([0.5]), "svm", 2)
    model = train_svm(data, TrainConfig(learning_rate=0.1, epochs=1, l2=0.1, seed=0), init=init)
    assert model.weights == pytest.approx(np.array([[0.99, 0.0]]), abs=1e-15)
    assert model.bias.tolist() == [0.5]


def test_svm_objective_improves_and_separates():
    for n_classes in (2, 3):
        data = blob_dataset(60, n_classes=n_classes, seed=6)
        cfg = TrainConfig(learning_rate=0.05, epochs=40, l2=1e-3, seed=3)
        model = train_svm(data, cfg)
        rows = 1 if n_classes == 2 else n_classes
        start = LinearModel(np.zeros((rows, data.n_features)), np.zeros(rows), "svm", n_classes)
        assert hinge_objective(model, data.features, data.labels, 1e-3) < hinge_objective(
            start, data.features, data.labels, 1e-3
        )
        pred = predict_labels(model, data.features)
        assert np.mean(pred == data.labels) > 0.95


def test_svm_is_deterministic_per_seed():
    data = blob_dataset(25, n_classes=2, seed=8)
    cfg = TrainConfig(learning_rate=0.05, epochs=10, l2=1e-3, seed=21)
    a = train_svm(data, cfg)
    b = train_svm(data, cfg)
    c = train_svm(data, TrainConfig(learning_rate=0.05, epochs=10, l2=1e-3, seed=22))
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
    assert not np.array_equal(a.weights, c.weights)


def _check_svm_against_oracle(data, n_classes, warm):
    rows = 1 if n_classes == 2 else n_classes
    init = init_w = init_b = None
    if warm:
        rng = np.random.default_rng(11)
        init_w = rng.normal(0.0, 0.5, (rows, data.n_features))
        init_b = rng.normal(0.0, 0.5, rows)
        init = LinearModel(init_w.copy(), init_b.copy(), "svm", n_classes)
    for seed in (0, 3, 22):
        for epochs in (1, 7):
            for l2 in (1e-3, 0.1, 0.0):
                cfg = TrainConfig(learning_rate=0.05, epochs=epochs, l2=l2, seed=seed)
                model = train_svm(data, cfg, init=init)
                weights, bias = vectorized_svm(
                    data.features, data.labels, n_classes, epochs, 0.05, l2, seed, init_w, init_b
                )
                assert model.weights.tobytes() == weights.tobytes(), (seed, epochs, l2)
                assert model.bias.tobytes() == bias.tobytes(), (seed, epochs, l2)
                if warm:  # the model's rows are updated in place on a copy only
                    assert init.weights.tobytes() == init_w.tobytes()
                    assert init.bias.tobytes() == init_b.tobytes()


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_svm_matches_vectorized_reference_bit_exactly(n_classes, warm):
    # overlapping blobs keep rows violating the margin in every epoch (with 3
    # classes, 4-24 steps per case have 2 or more violating rows, mostly of
    # both signs); l2 0.1 lets the carried decay scale drift far from 1
    # within an epoch
    data = blob_dataset(40, n_classes=n_classes, n_features=6, seed=4, spread=4.0)
    _check_svm_against_oracle(data, n_classes, warm)


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_svm_matches_vectorized_reference_at_encoded_b_width(n_classes, warm):
    # 39 features is the B stand-in's encoded width, wide enough to reach the
    # gemv kernel's main loop where 6 features may reach only its tail; spread
    # 16 keeps the wider blobs violating the margin into the last epoch
    data = blob_dataset(40, n_classes=n_classes, n_features=39, seed=4, spread=16.0)
    _check_svm_against_oracle(data, n_classes, warm)


@pytest.mark.parametrize(
    "n_features,spread", [(6, 4.0), (39, 16.0)], ids=["6_features", "encoded_b_width"]
)
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_svm_python_loop_matches_vectorized_reference(
    n_classes, warm, n_features, spread, kernel_off
):
    # the two tests above run whichever path loads, the compiled one where a
    # C compiler exists; this runs the Python loop on the same cases
    assert kernel.path() == "python: forced off by the test"
    data = blob_dataset(40, n_classes=n_classes, n_features=n_features, seed=4, spread=spread)
    _check_svm_against_oracle(data, n_classes, warm)


def test_svm_fortran_ordered_warm_start_matches_reference(each_path):
    # the compiled epoch reads weights in C order, so a Fortran-ordered init
    # must be copied to C order, as the oracle copies it, not misread
    data = blob_dataset(40, n_classes=3, n_features=39, seed=4, spread=16.0)
    rng = np.random.default_rng(11)
    init_w, init_b = rng.normal(0.0, 0.5, (3, 39)), rng.normal(0.0, 0.5, 3)
    init = LinearModel(np.asfortranarray(init_w), init_b.copy(), "svm", 3)
    model = train_svm(data, TrainConfig(learning_rate=0.05, epochs=7, l2=1e-3, seed=3), init=init)
    weights, bias = vectorized_svm(
        data.features, data.labels, 3, 7, 0.05, 1e-3, 3, init_w, init_b
    )
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias.tobytes() == bias.tobytes()


def test_svm_raises_when_the_decay_would_vanish(each_path):
    # the config check rejects this step too, but train_svm must not rely on it
    data = blob_dataset(5, n_classes=3, seed=1)
    for lr, l2 in ((1.0, 1.0), (0.5, 4.0)):
        with pytest.raises(InvalidConfigError, match=r"learning_rate \* l2 too large"):
            train_svm(data, TrainConfig(learning_rate=lr, epochs=3, l2=l2))


def _grow(X, y, rows, rng, n_classes, cfg):
    """One tree as ``train_forest`` grows it: in C where the grower loads, else ``_grow_tree``.

    A compiled ``Tree`` must equal ``_grow_tree``'s on a twin generator,
    node arrays and generator state alike.
    """
    size = _subset_size(X.shape[1])
    grow = kernel.tree_grower(X, y, n_classes, size, cfg.min_leaf, cfg.max_depth)
    if grow is None:
        return _grow_tree(X, y, rows, rng, n_classes, cfg)
    twin = copy.deepcopy(rng)
    tree = grow(rows.copy(), rng)
    assert isinstance(tree, Tree)
    assert_same_tree_bytes([tree], [_grow_tree(X, y, rows, twin, n_classes, cfg)])
    assert rng.bit_generator.state == twin.bit_generator.state
    return tree


def test_grow_tree_split_oracle():
    # the midpoint between the touching classes is 2.5; children are pure
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    cfg = TrainConfig(max_depth=3, min_leaf=1)
    tree = _grow(X, y, np.arange(4), np.random.default_rng(0), 2, cfg)
    assert tree.feature[0] != -1
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.5
    assert tree.counts[1].tolist() == [2, 0]
    assert tree.counts[tree.right[0]].tolist() == [0, 2]


def test_grow_tree_stops_on_purity_and_min_leaf():
    cfg = TrainConfig(max_depth=5, min_leaf=2)
    pure = _grow(
        np.array([[1.0], [2.0]]), np.array([1, 1]), np.arange(2),
        np.random.default_rng(0), 2, cfg,
    )
    assert pure.feature.tolist() == [-1] and pure.counts[0].tolist() == [0, 2]
    # 3 rows cannot produce two children of at least 2
    small = _grow(
        np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), np.arange(3),
        np.random.default_rng(0), 2, cfg,
    )
    assert small.feature.tolist() == [-1]


def test_grow_tree_leaf_when_drawn_subset_is_constant():
    # every feature separates the classes except those the root draws: at
    # seed 4 three of nine, at seed 0 two of three
    for d, seed in ((9, 4), (3, 0)):
        size = _subset_size(d)
        subset = np.random.default_rng(seed).choice(d, size=size, replace=False)
        X = np.tile(np.arange(8.0)[:, None], (1, d))
        X[:, subset] = 1.0
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        rng = np.random.default_rng(seed)
        tree = _grow(X, y, np.arange(8), rng, 2, TrainConfig(max_depth=5, min_leaf=1))
        assert tree.feature.tolist() == [-1] and tree.counts[0].tolist() == [4, 4]
        drawn = np.random.default_rng(seed)
        drawn.choice(d, size=size, replace=False)
        assert rng.bit_generator.state == drawn.bit_generator.state


def test_grow_tree_equal_gains_take_the_earlier_drawn_feature():
    # column c is (c + 1) * [1, 2, .., n]: every column splits the rows alike,
    # at threshold (n + 1) / 2 * (c + 1); the root of seed 5 draws [3, 2] of
    # four, seeds 0 and 1 draw [1, 2] and [0, 1] of three
    assert np.random.default_rng(5).choice(4, size=2, replace=False).tolist() == [3, 2]
    cfg = TrainConfig(max_depth=1, min_leaf=1)
    for n, d, seed in ((4, 4, 5), (6, 3, 0), (6, 3, 1)):
        X = np.arange(1.0, n + 1)[:, None] * np.arange(1.0, d + 1)[None, :]
        y = np.repeat([0, 1], n // 2)
        first = np.random.default_rng(seed).choice(d, size=_subset_size(d), replace=False)[0]
        tree = _grow(X, y, np.arange(n), np.random.default_rng(seed), 2, cfg)
        assert tree.feature[0] == first
        assert tree.threshold[0] == (n + 1) / 2 * (first + 1)


def test_grow_tree_at_twice_min_leaf_splits_only_at_the_middle():
    # unconstrained, the best cut isolates the class-0 row; min_leaf 3 of 6
    # rows leaves only the 3 | 3 cut, whatever order the rows come in
    cfg = TrainConfig(max_depth=1, min_leaf=3)
    rng = np.random.default_rng(0)
    for x, y, tied in (
        ([1.0, 2, 3, 4, 5, 6], [0, 1, 1, 1, 1, 1], [1.0, 2, 3, 3, 5, 6]),
        ([4.0, 1, 6, 2, 3, 5], [1, 0, 1, 1, 1, 1], [3.0, 1, 6, 2, 3, 5]),
    ):
        y = np.array(y)
        tree = _grow(np.array(x)[:, None], y, np.arange(6), rng, 2, cfg)
        assert tree.threshold[0] == 3.5
        assert tree.counts[1].tolist() == [1, 2]
        assert tree.counts[tree.right[0]].tolist() == [0, 3]
        # equal values either side of the middle cut: no valid cut at all
        tree = _grow(np.array(tied)[:, None], y, np.arange(6), rng, 2, cfg)
        assert tree.feature.tolist() == [-1]


def test_grow_tree_no_positive_gain_gives_a_leaf():
    # each side of the only cut holds one row of each class: gain exactly 0
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    cfg = TrainConfig(max_depth=3, min_leaf=1)
    tree = _grow(X, np.array([0, 1, 1, 0]), np.arange(4), np.random.default_rng(0), 2, cfg)
    assert tree.feature.tolist() == [-1]


def test_grow_tree_signed_zero_ties_split_alike():
    # the children split again on the rows the root's split sent them
    X = np.array([[0.0], [-0.0], [1.0], [-0.0], [0.0], [2.0], [-1.0], [-0.0]])
    y = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    rows = np.array([1, 0, 4, 3, 2, 5, 7, 6])
    for min_leaf in (1, 2):
        cfg = TrainConfig(max_depth=3, min_leaf=min_leaf)
        tree = _grow(X, y, rows, np.random.default_rng(0), 2, cfg)
        assert tree.feature[0] == 0


def test_grow_tree_midpoint_rounding_up_to_hi_falls_back_to_lo():
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi  # the midpoint of adjacent floats rounds up here
    X = np.array([[lo], [lo], [hi], [hi]])
    cfg = TrainConfig(max_depth=1, min_leaf=1)
    tree = _grow(X, np.array([0, 0, 1, 1]), np.arange(4), np.random.default_rng(0), 2, cfg)
    assert tree.threshold[0].tobytes() == lo.tobytes()
    assert tree.counts[1].tolist() == [2, 0]
    assert tree.counts[tree.right[0]].tolist() == [0, 2]


def test_grow_tree_class_squares_sum_in_class_order():
    # these nodes split elsewhere when the class squares are added in
    # another order: three as (a0 + a1) + a2, nine one after another, where
    # numpy's pairwise sum would split the nine-class node at feature 2, -0.5
    nodes = kernel._SUM_ORDER_NODES
    for (X, y, n_classes, min_leaf, seed), want in zip(nodes, [(0, -1.5), (2, 1.5)]):
        cfg = TrainConfig(max_depth=1, min_leaf=min_leaf)
        tree = _grow(X, y, np.arange(y.size), np.random.default_rng(seed), n_classes, cfg)
        assert (tree.feature[0], tree.threshold[0]) == want


def test_grow_tree_three_and_nine_classes_on_repeated_values():
    # from eight classes numpy's sum would add the class squares pairwise
    rng = np.random.default_rng(3)
    for n_classes in (3, 9):
        for trial in range(20):
            n = int(rng.integers(4, 60))
            X = np.round(rng.normal(size=(n, 6)) * 1.5)
            y = rng.integers(0, n_classes, size=n)
            cfg = TrainConfig(max_depth=2 + trial % 3, min_leaf=1 + trial % 3)
            _grow(X, y, rng.integers(0, n, size=n), rng, n_classes, cfg)


@pytest.mark.parametrize(
    "case",
    [
        test_grow_tree_split_oracle,
        test_grow_tree_stops_on_purity_and_min_leaf,
        test_grow_tree_leaf_when_drawn_subset_is_constant,
        test_grow_tree_equal_gains_take_the_earlier_drawn_feature,
        test_grow_tree_at_twice_min_leaf_splits_only_at_the_middle,
        test_grow_tree_no_positive_gain_gives_a_leaf,
        test_grow_tree_signed_zero_ties_split_alike,
        test_grow_tree_midpoint_rounding_up_to_hi_falls_back_to_lo,
        test_grow_tree_class_squares_sum_in_class_order,
        test_grow_tree_three_and_nine_classes_on_repeated_values,
    ],
    ids=lambda case: case.__name__.removeprefix("test_grow_tree_"),
)
def test_grow_tree_cases_on_the_numpy_split(case, kernel_off):
    # the cases above run whichever grower loads, the compiled one where a
    # C compiler exists; this runs the Python one, on the numpy split, on them
    assert kernel.path() == "python: forced off by the test"
    case()


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("min_leaf", [1, 2, 9])
@pytest.mark.parametrize("max_depth", [3, 12, 40])
def test_forest_matches_per_feature_oracle_bit_exactly(n_classes, min_leaf, max_depth):
    # overlapping blobs grow deep trees; rounding half the columns gives the
    # repeated values and equal gains that one-hot and integer columns do
    data = blob_dataset(60, n_classes=n_classes, n_features=8, seed=n_classes, spread=3.0)
    X = data.features.copy()
    X[:, ::2] = np.round(X[:, ::2])
    data = EncodedDataset(X, data.labels, n_classes, data.feature_names)
    for seed in (0, 5, 17):
        cfg = TrainConfig(n_trees=4, max_depth=max_depth, min_leaf=min_leaf, seed=seed)
        got = train_forest(data, cfg).trees
        want = per_feature_forest(X, data.labels, n_classes, 4, max_depth, min_leaf, seed)
        assert_trees_match(got, want, seed)


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("min_leaf", [1, 2, 9])
@pytest.mark.parametrize("max_depth", [3, 12, 40])
def test_forest_on_the_numpy_split_matches_per_feature_oracle(
    n_classes, min_leaf, max_depth, kernel_off
):
    # the test above runs whichever grower loads, the compiled one where a
    # C compiler exists; this runs the Python one on the same cases
    assert kernel.path() == "python: forced off by the test"
    test_forest_matches_per_feature_oracle_bit_exactly(n_classes, min_leaf, max_depth)


def test_forest_growth_limits_and_bootstrap_mass():
    data = blob_dataset(60, n_classes=2, seed=5, spread=3.0)
    cfg = TrainConfig(n_trees=10, max_depth=3, min_leaf=4, seed=2)
    forest = train_forest(data, cfg)
    assert len(forest.trees) == 10
    for tree in forest.trees:
        # children follow their parent, so one pass in node order fills depth
        depth = np.zeros(tree.feature.size, dtype=np.int64)
        for i in np.flatnonzero(tree.feature >= 0):
            depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
        leaves = np.flatnonzero(tree.feature == -1)
        assert all(depth[leaves] <= 3)
        # every leaf born of a split respects min_leaf, and each bootstrap
        # distributes exactly n rows over its leaves
        for leaf in leaves:
            if depth[leaf] > 0:
                assert tree.counts[leaf].sum() >= 4
        assert tree.counts[leaves].sum() == data.n_samples


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_grown_trees_are_walkable(n_classes, each_path):
    # repeated values, single-row leaves and deep trees on both growers
    data = blob_dataset(30, n_classes=n_classes, n_features=6, seed=n_classes, spread=3.0)
    X = data.features.copy()
    X[:, ::2] = np.round(X[:, ::2])
    data = EncodedDataset(X, data.labels, n_classes, data.feature_names)
    for min_leaf, max_depth in ((1, 40), (3, 4)):
        cfg = TrainConfig(n_trees=5, max_depth=max_depth, min_leaf=min_leaf, seed=n_classes)
        forest = train_forest(data, cfg)
        for tree in forest.trees:
            assert_walkable_tree(tree, n_classes, data.n_features)
            assert tree.counts[0].sum() == data.n_samples


_TREE_ARRAYS = ("feature", "threshold", "right", "counts")


def _walkable_fixture():
    """A grown tree's node arrays as writeable copies: a ``Tree`` refuses broken ones."""
    data = blob_dataset(30, n_classes=3, seed=3, spread=3.0)
    tree = train_forest(data, TrainConfig(n_trees=2, max_depth=4, seed=1)).trees[1]
    assert tree.feature[0] >= 0 and tree.feature[1] >= 0  # the root and its left child split
    arrays = {name: getattr(tree, name).copy() for name in _TREE_ARRAYS}
    return SimpleNamespace(**arrays), data.n_features


def _with(t, **arrays):
    return SimpleNamespace(**{**vars(t), **arrays})


def _first_leaf(tree):
    return int(np.flatnonzero(tree.feature == -1)[0])


# each fault returns the broken tree, and the check must name what broke
def _child_before_parent(t, n_features):
    t.right[1] = 0
    return t


def _child_is_parent(t, n_features):
    t.right[0] = 0
    return t


def _child_past_end(t, n_features):
    t.right[0] = t.feature.size
    return t


def _empty_left_subtree(t, n_features):
    # the right child is the left one, node 1
    t.right[0] = 1
    return t


def _shared_child(t, n_features):
    # the root's left child takes the root's right child as its own
    t.right[1] = t.right[0]
    return t


def _feature_too_large(t, n_features):
    t.feature[0] = n_features
    return t


def _feature_below_leaf_marker(t, n_features):
    t.feature[0] = -2
    return t


def _leaf_with_children(t, n_features):
    t.right[_first_leaf(t)] = 0
    return t


def _leaf_with_threshold(t, n_features):
    t.threshold[_first_leaf(t)] = 0.5
    return t


def _nan_threshold(t, n_features):
    t.threshold[0] = np.nan
    return t


def _empty_leaf_counts(t, n_features):
    # a leaf no training row reached would score 0 / 0 for every class
    t.counts[_first_leaf(t)] = 0
    return t


def _negative_counts(t, n_features):
    t.counts[0, 0] = -1
    return t


def _counts_not_children_sum(t, n_features):
    t.counts[0, 0] += 1
    return t


def _unequal_lengths(t, n_features):
    return _with(t, threshold=t.threshold[:-1])


def _nested_arrays(t, n_features):
    return _with(t, right=t.right[None, :])


def _float_features(t, n_features):
    return _with(t, feature=t.feature.astype(np.float64))


def _counts_too_wide(t, n_features):
    return _with(t, counts=np.hstack([t.counts, t.counts[:, :1]]))


def _counts_too_narrow(t, n_features):
    return _with(t, counts=t.counts[:, :-1])


_WALK_FAULTS = [
    (_child_before_parent, "does not come after its parent"),
    (_child_is_parent, "does not come after its parent"),
    (_child_past_end, "past the last node"),
    (_empty_left_subtree, "no left subtree"),
    (_shared_child, "not one parent"),
    (_feature_too_large, "feature is out of range"),
    (_feature_below_leaf_marker, "feature is out of range"),
    (_leaf_with_children, "leaf has a right child"),
    (_leaf_with_threshold, "leaf has a threshold"),
    (_nan_threshold, "threshold is not finite"),
    (_empty_leaf_counts, "no training row reached"),
    (_negative_counts, "count is negative"),
    (_counts_not_children_sum, "children's sum"),
    (_unequal_lengths, "differ in length"),
    (_nested_arrays, "not one-dimensional"),
    (_float_features, "not an integer"),
    (_counts_too_wide, "one row of n_classes"),
    (_counts_too_narrow, "one row of n_classes"),
]


@pytest.mark.parametrize(
    "corrupt, message", _WALK_FAULTS, ids=[f.__name__.lstrip("_") for f, _ in _WALK_FAULTS]
)
def test_walk_check_catches_each_fault(corrupt, message):
    # the check above is evidence only if it rejects each way a tree can break
    tree, n_features = _walkable_fixture()
    assert_walkable_tree(tree, 3, n_features)  # the untouched tree passes
    with pytest.raises(AssertionError, match=message):
        assert_walkable_tree(corrupt(tree, n_features), 3, n_features)


def _float32_threshold(t, n_features):
    return _with(t, threshold=t.threshold.astype(np.float32))


def _int32_counts(t, n_features):
    return _with(t, counts=t.counts.astype(np.int32))


def _flat_counts(t, n_features):
    return _with(t, counts=t.counts[:, 0].copy())


def _counts_of_fewer_nodes(t, n_features):
    return _with(t, counts=t.counts[:-1])


def _no_nodes(t, n_features):
    return SimpleNamespace(**{name: getattr(t, name)[:0] for name in _TREE_ARRAYS})


# the faults that would send a walk astray, read past an array, or misread a
# dtype: a Tree, or the Forest that holds it, must refuse each one
_TREE_FAULTS = [
    (_child_before_parent, r"right child must lie after i \+ 1"),
    (_child_is_parent, r"right child must lie after i \+ 1"),
    (_child_past_end, r"right child must lie after i \+ 1, inside the tree"),
    (_empty_left_subtree, r"right child must lie after i \+ 1"),
    (_feature_too_large, r"features must lie in \[-1, "),
    (_feature_below_leaf_marker, "features must be -1"),
    (_unequal_lengths, "of one length"),
    (_nested_arrays, "of one length"),
    (_no_nodes, "non-empty"),
    (_float_features, "feature must be a int64 array"),
    (_float32_threshold, "threshold must be a float64 array"),
    (_int32_counts, "counts must be a int64 array"),
    (_flat_counts, r"counts must be \(11, n_classes\)"),
    (_counts_of_fewer_nodes, r"counts must be \(11, n_classes\)"),
    (_counts_too_wide, "a tree counts 4 classes, the forest 3"),
    (_counts_too_narrow, "a tree counts 2 classes, the forest 3"),
]


@pytest.mark.parametrize(
    "corrupt, message", _TREE_FAULTS, ids=[f.__name__.lstrip("_") for f, _ in _TREE_FAULTS]
)
def test_a_forest_refuses_a_tree_no_walk_can_follow(corrupt, message):
    tree, n_features = _walkable_fixture()
    assert tree.feature.size == 11
    Forest((Tree(**vars(tree)),), 3, n_features)  # the untouched arrays make a tree
    with pytest.raises(ValueError, match=message):
        Forest((Tree(**vars(corrupt(tree, n_features))),), 3, n_features)


def test_a_tree_keeps_read_only_copies_of_its_arrays():
    arrays, n_features = _walkable_fixture()
    tree = Tree(**vars(arrays))
    for name in _TREE_ARRAYS:
        kept = getattr(tree, name)
        assert not kept.flags.writeable and kept.tobytes() == getattr(arrays, name).tobytes()
        assert not np.shares_memory(kept, getattr(arrays, name))
    right = int(arrays.right[0])
    arrays.right[0] = 0  # a later write to the caller's array leaves the tree as checked
    assert tree.right[0] == right
    with pytest.raises(ValueError, match="read-only"):
        tree.right[0] = 0


def test_malformed_trees_fail_before_any_walk():
    # a root that is its own right child would walk forever; feature 5 of a
    # 1-feature forest would read past each row
    feature, threshold, counts = np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]), np.ones((3, 2))
    counts = counts.astype(np.int64)
    with pytest.raises(ValueError, match=r"right child must lie after i \+ 1"):
        Tree(feature, threshold, np.array([0, -1, -1]), counts)
    tree = Tree(np.array([5, -1, -1]), threshold, np.array([2, -1, -1]), counts)
    with pytest.raises(ValueError, match=r"features must lie in \[-1, 1\)"):
        Forest((tree,), 2, 1)


def test_forest_deterministic_and_tree_order_independent():
    data = blob_dataset(30, n_classes=2, seed=12)
    cfg = TrainConfig(n_trees=3, max_depth=4, min_leaf=2, seed=7)
    a = train_forest(data, cfg)
    b = train_forest(data, cfg)
    assert (a.n_classes, a.n_features) == (b.n_classes, b.n_features) == (2, data.n_features)
    assert_same_tree_bytes(a.trees, b.trees)
    first_only = train_forest(data, TrainConfig(n_trees=1, max_depth=4, min_leaf=2, seed=7))
    assert (first_only.n_classes, first_only.n_features) == (2, data.n_features)
    assert_same_tree_bytes(a.trees[:1], first_only.trees)


def test_forest_scores_are_distributions_and_accurate():
    data = blob_dataset(50, n_classes=3, seed=13, spread=1.0)
    forest = train_forest(data, TrainConfig(n_trees=20, max_depth=8, min_leaf=2, seed=3))
    scores = predict_scores(forest, data.features)
    assert scores.shape == (150, 3)
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-12)
    assert np.mean(predict_labels(forest, data.features) == data.labels) > 0.95


def test_forest_on_one_class_predicts_the_root_distribution():
    # every bootstrap is pure, so each tree is a lone root leaf and the walk
    # takes no step
    data = blob_dataset(10, n_classes=3, seed=6)
    one_class = EncodedDataset(data.features, np.full(30, 2), 3, data.feature_names)
    forest = train_forest(one_class, TrainConfig(n_trees=3, seed=1))
    assert all(tree.feature.tolist() == [-1] for tree in forest.trees)
    assert predict_scores(forest, data.features).tolist() == [[0.0, 0.0, 1.0]] * 30


def test_forest_training_and_prediction_leave_no_reference_cycles():
    # a cycle would keep each tree's nodes and the training block alive until
    # the cyclic collector ran, raising peak memory
    data = blob_dataset(40, n_classes=3, seed=8, spread=3.0)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        forest = train_forest(data, TrainConfig(n_trees=5, max_depth=6, seed=2))
        predict_scores(forest, data.features)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_linear_models_learn_blobs():
    for n_classes in (2, 3):
        data = blob_dataset(50, n_classes=n_classes, seed=14)
        logreg = train_logreg(data, TrainConfig(learning_rate=0.1, epochs=150, l2=1e-3))
        assert np.mean(predict_labels(logreg, data.features) == data.labels) > 0.95
        probs = predict_scores(logreg, data.features)
        assert probs.shape == (data.n_samples, n_classes)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def _softmax_cases(classes):
    rng = np.random.default_rng(31)
    for k in classes:
        yield rng.normal(0.0, 3.0, (40, k))
        yield np.round(rng.normal(0.0, 1.0, (40, k)), 0)  # tied rows and tied maxima
        yield rng.choice([-700.0, 700.0, -699.5, 0.0], size=(40, k))
        yield np.exp(rng.uniform(-30.0, 6.0, (40, k))) * rng.choice([-1.0, 1.0], (40, k))
        yield np.zeros((0, k))
    # maxima that appear as both -0.0 and 0.0, in either order
    yield np.array([[-0.0, 0.0, -5.0], [0.0, -0.0, -1.0], [-0.0, 0.0, -0.0]])
    yield np.array([[-3.0, -0.0, 0.0, -0.0], [0.0, -2.0, -0.0, -0.0], [-0.0, -1.0, -1.0, 0.0]])
    yield np.array([[-0.0, 0.0, -0.0, 0.0, 0.0], [-0.0] * 5, [0.0] * 5])


def test_softmax_matches_the_row_reduction_form_bit_for_bit():
    # below eight classes numpy's row sum adds in class order, as _softmax's fold
    for z in _softmax_cases(range(2, 8)):
        got = _softmax(z)
        assert got.shape == z.shape
        assert got.tobytes() == reduction_softmax(z).tobytes(), z


def test_softmax_adds_eight_or_more_classes_in_class_order():
    # numpy's row sum adds eight or more values pairwise; _softmax adds them
    # one after another, which cumsum's last column does too
    differs = False
    for z in _softmax_cases(range(8, 12)):
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        want = ez / np.cumsum(ez, axis=1)[:, -1:]
        assert _softmax(z).tobytes() == want.tobytes(), z
        differs |= want.tobytes() != (ez / ez.sum(axis=1, keepdims=True)).tobytes()
    assert differs  # the fold is pinned, not numpy's pairwise sum


def test_multiclass_loss_matches_the_row_reduction_form_bit_for_bit():
    rng = np.random.default_rng(32)
    for k in (3, 5, 9):
        X = rng.normal(0.0, 2.0, (60, 4))
        y = rng.integers(0, k, 60)
        model = LinearModel(rng.normal(0.0, 1.0, (k, 4)), rng.normal(0.0, 1.0, k), "logistic", k)
        z = X @ model.weights.T + model.bias
        logz = z - z.max(axis=1, keepdims=True)
        data_term = float(np.mean(np.log(np.exp(logz).sum(axis=1)) - logz[np.arange(60), y]))
        expected = data_term + 0.5 * 1e-3 * float(np.sum(model.weights**2))
        assert logistic_loss(model, X, y, 1e-3) == expected


def test_predict_label_ties_take_lowest_index():
    zero_binary = LinearModel(np.zeros((1, 2)), np.zeros(1), "svm", 2)
    assert predict_labels(zero_binary, np.array([[1.0, 2.0]])).tolist() == [0]
    zero_multi = LinearModel(np.zeros((3, 2)), np.zeros(3), "logistic", 3)
    assert predict_labels(zero_multi, np.array([[0.5, -0.5]])).tolist() == [0]


def test_predict_rejects_wrong_width():
    model = LinearModel(np.zeros((1, 3)), np.zeros(1), "logistic", 2)
    with pytest.raises(ShapeMismatchError):
        predict_scores(model, np.zeros((4, 2)))


def test_train_config_validation():
    with pytest.raises(InvalidConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(InvalidConfigError):
        TrainConfig(min_leaf=0)
    with pytest.raises(InvalidConfigError):
        TrainConfig(n_trees=0)


_TRAINERS = {"logistic": train_logreg, "svm": train_svm, "forest": train_forest}
# a value for every setting, unlike any model's default
_OTHER_VALUES = {"learning_rate": 0.37, "l2": 0.25, "n_trees": 7, "max_depth": 2, "min_leaf": 9}


def _trained_bytes(model_kind, cfg):
    model = _TRAINERS[model_kind](blob_dataset(20, n_classes=3, spread=3.0), cfg)
    if isinstance(model, LinearModel):
        return [model.weights.tobytes(), model.bias.tobytes()]
    return [getattr(tree, name).tobytes() for tree in model.trees
            for name in ("feature", "threshold", "right", "counts")]


@pytest.mark.parametrize("model_kind", sorted(TRAIN_SETTINGS))
def test_train_settings_are_what_the_trainer_reads(model_kind):
    # train_overrides accept a model's TRAIN_SETTINGS only: every other field
    # (epochs and seed aside, which every run derives) must change nothing,
    # and each setting must change something
    settings = TRAIN_SETTINGS[model_kind]
    base = TrainConfig(**settings, epochs=3, seed=5)
    want = _trained_bytes(model_kind, base)
    ignored = {name: value for name, value in _OTHER_VALUES.items() if name not in settings}
    assert set(ignored) | set(settings) | {"epochs", "seed"} == set(vars(base))
    assert _trained_bytes(model_kind, dataclasses.replace(base, **ignored)) == want
    for name in settings:
        changed = dataclasses.replace(base, **{name: _OTHER_VALUES[name]})
        assert _trained_bytes(model_kind, changed) != want, name
