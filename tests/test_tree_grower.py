"""The compiled tree grower against the Python one, tree for tree and bit for bit.

``train_forest`` grows each tree in one C call where the kernels load, and
node by node in Python (``models._grow_tree``) where they do not.  Both must
give the same bytes on every input: the C grower draws each node's features
from the tree's own generator as ``rng.choice`` does, and counts classes
over value ranks where Python sorts each node's values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from _oracles import assert_same_tree_bytes
from fedtab import kernel
from fedtab.dataset import EncodedDataset
from fedtab.models import TrainConfig, train_forest


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
