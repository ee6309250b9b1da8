"""The compiled tree grower against the Python one, tree for tree and bit for bit.

``train_forest`` grows each tree in one C call where the kernels load, and
node by node in Python (``models._grow_tree``) where they do not.  Both must
give the same bytes on every input: the C grower draws each node's features
from the tree's own generator as ``rng.choice`` does, and counts classes
over value ranks where Python sorts each node's values.  Both must refuse
inputs the C code would index out of bounds.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import assert_same_tree_bytes
from fedtab import kernel
from fedtab.dataset import EncodedDataset
from fedtab.models import TrainConfig, _grow_tree, train_forest


@pytest.fixture
def compiled():
    loaded = kernel.load()
    if loaded is None or loaded.forest_fallback() is not None:
        pytest.skip(f"compiled grower unavailable ({kernel.path()})")
    return loaded


def _block(rng, n, d, n_classes):
    """Rounded features with ties, signed zeros, a constant column, duplicate rows
    and a column of distinct values, whose rank histograms are sparse."""
    X = np.round(rng.normal(size=(n, d)) * rng.choice([0.5, 2.0, 8.0]))
    X[:, 0] *= 0.0  # -0.0 and 0.0
    if d > 1:
        X[:, -1] = rng.normal(size=n)
    if d > 2:
        X[:, 1] = 3.0
    X[n // 2 :: 7] = X[0]  # duplicate rows
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)
    return X, y


# (d, n_classes, min_leaf, max_depth): every width, 2 to 9 classes,
# min_leaf 1 to 3 and max_depth 1 to 13
_CASES = [
    (1, 2, 1, 13), (1, 5, 2, 4), (2, 3, 1, 1), (2, 9, 3, 7), (3, 2, 2, 12),
    (3, 6, 1, 3), (39, 3, 2, 12), (39, 8, 1, 9), (39, 4, 3, 2), (64, 7, 1, 11),
    (64, 2, 2, 6), (64, 9, 3, 13),
]


@pytest.mark.parametrize("d, n_classes, min_leaf, max_depth", _CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_compiled_trees_are_the_python_growers(
    compiled, monkeypatch, seed, d, n_classes, min_leaf, max_depth
):
    rng = np.random.default_rng([seed, d, n_classes, min_leaf, max_depth])
    X, y = _block(rng, int(rng.integers(n_classes, 160)), d, n_classes)
    data = EncodedDataset(X, y, n_classes, tuple(f"f{i}" for i in range(d)))
    cfg = TrainConfig(n_trees=3, max_depth=max_depth, min_leaf=min_leaf, seed=seed)
    got = train_forest(data, cfg)
    monkeypatch.setattr(kernel, "_loaded", "forced off by the test")
    assert_same_tree_bytes(got.trees, train_forest(data, cfg).trees)


@pytest.mark.parametrize(
    "min_leaf", [40, 41, 2**62, 2**63, 2**64 + 1], ids=["N", "N+1", "2**62", "2**63", "2**64+1"]
)
def test_min_leaf_of_the_row_count_or_more_grows_one_leaf_on_each_path(
    compiled, monkeypatch, min_leaf
):
    # the C grower gets min(min_leaf, N): from 2**62 up 2 * min_leaf would overflow
    # its int64, and from 2**64 up the ctypes field would wrap, 2**64 + 1 to 1
    X, y = _block(np.random.default_rng(5), 40, 3, 3)
    data = EncodedDataset(X, y, 3, ("f0", "f1", "f2"))
    cfg = TrainConfig(n_trees=3, max_depth=12, min_leaf=min_leaf, seed=5)
    got = train_forest(data, cfg)
    monkeypatch.setattr(kernel, "_loaded", "forced off by the test")
    assert_same_tree_bytes(got.trees, train_forest(data, cfg).trees)
    assert [tree.feature.tolist() for tree in got.trees] == [[-1]] * 3


@pytest.mark.parametrize("d", [1, 2, 3, 7, 39, 64, 100, 1000, 5000])
def test_draws_are_rng_choices_and_leave_the_same_state(compiled, d):
    for size in sorted({1, math.ceil(math.sqrt(d)), min(d, 32), min(d, 100)}):
        # an odd count of earlier draws leaves PCG64 a buffered half word
        for seed, before in enumerate((0, 1, 2, 3)):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            got.integers(0, 9, size=before)
            want.integers(0, 9, size=before)
            for _ in range(3):
                assert compiled.draw(got, d, size).tobytes() == want.choice(
                    d, size, replace=False
                ).tobytes()
            assert got.bit_generator.state == want.bit_generator.state


def test_ranks_ignore_how_ties_and_signed_zeros_sort(compiled):
    X = np.array([[0.0, 2.0], [-0.0, 2.0], [-1.5, 2.0], [0.0, 2.0], [4.0, 2.0], [-0.0, 2.0]])
    ranks, values, offsets = compiled.rank_features(X)
    assert ranks.tolist() == [[1, 1, 0, 1, 2, 1], [0] * 6]
    assert offsets.tolist() == [0, 3, 4]
    assert values.tolist() == [-1.5, 0.0, 4.0, 2.0]  # the zero's sign is whichever sorts first


def _bad_tree_inputs():
    X, y, rows = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1]), np.arange(6)
    nan = X.copy()
    nan[2, 1] = np.nan
    inf = X.copy()
    inf[0, 0] = -np.inf
    read_only = rows.copy()
    read_only.flags.writeable = False
    # (features, labels, bootstrap rows, min_leaf, error message)
    return {
        "fortran_features": (np.asfortranarray(X), y, rows, 1, "C-contiguous"),
        "float32_features": (X.astype(np.float32), y, rows, 1, "C-contiguous"),
        "nan_feature": (nan, y, rows, 1, "finite"),
        "infinite_feature": (inf, y, rows, 1, "finite"),
        "int32_labels": (X, y.astype(np.int32), rows, 1, "labels must be"),
        "label_past_n_classes": (
            X, np.array([0, 1, 2, 1, 0, 1]), rows, 1, r"labels must lie in \[0, 2\)"
        ),
        "negative_label": (X, np.array([0, -1, 0, 1, 0, 1]), rows, 1, r"labels must lie"),
        "short_labels": (X, y[:5], rows, 1, "expected 6 labels"),
        "row_past_the_end": (
            X, y, np.array([0, 6, 1, 2, 3, 4]), 1, r"rows must lie in \[0, 6\)"
        ),
        "negative_row": (X, y, np.array([-1, 0, 1, 2, 3, 4]), 1, r"rows must lie"),
        "float_rows": (X, y, rows.astype(np.float64), 1, "rows must be"),
        "short_rows": (X, y, rows[:5], 1, "expected the tree's 6 bootstrap rows"),
        "read_only_rows": (X, y, read_only, 1, "rows must be writeable"),
        "min_leaf_zero": (X, y, rows, 0, "min_leaf must be at least 1"),
    }


@pytest.mark.parametrize("case", sorted(_bad_tree_inputs()))
def test_grow_tree_refuses_what_the_kernel_would_misread(case, each_path):
    X, y, rows, min_leaf, message = _bad_tree_inputs()[case]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        if each_path == "compiled":
            kernel.load().tree_grower(X, y, 2, 1, min_leaf, 3)(rows, rng)
        else:
            # TrainConfig itself refuses min_leaf 0; _grow_tree reads only these two
            cfg = SimpleNamespace(max_depth=3, min_leaf=min_leaf)
            _grow_tree(X, y, rows, rng, 2, cfg)


def test_compiled_grower_refuses_rows_or_a_subset_it_would_misread(compiled):
    X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1])
    for n_subset in (-1, 3):
        with pytest.raises(ValueError, match="n_subset <= d"):
            compiled.tree_grower(X, y, 2, n_subset, 1, 3)
    grow = compiled.tree_grower(X, y, 2, 1, 1, 3)
    # the grower partitions exactly the forest's N rows, in place
    for rows in (np.arange(5), np.arange(7), np.arange(6).reshape(2, 3)):
        with pytest.raises(ValueError, match="expected the tree's 6 bootstrap rows"):
            grow(rows, np.random.default_rng(0))
    with pytest.raises(ValueError, match="rows must be a C-contiguous"):
        grow(np.arange(12)[::2], np.random.default_rng(0))
    read_only = np.arange(6)
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="rows must be writeable"):
        grow(read_only, np.random.default_rng(0))
    feature, threshold, right, counts = grow(np.arange(6), np.random.default_rng(0))
    assert feature[0] >= 0 and counts[0].tolist() == [3, 3]
