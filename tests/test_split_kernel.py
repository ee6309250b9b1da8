"""The compiled split search against ``models._best_split``, edge case by edge case.

Each case runs one node through ``kernel._Kernel.split_search``, the C split
the compiled tree grower calls at every node, and through the numpy search
around ``_best_split`` on copies of the same rows, and asks for the same
split position, threshold bits, child counts and row order.  The compiled
grower (``kernel._Kernel.tree_grower``) and ``models._grow_tree`` must both
refuse inputs the C code would index out of bounds.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from fedtab import kernel
from fedtab.models import _grow_tree, _numpy_split_search


@pytest.fixture
def compiled():
    loaded = kernel.load()
    if loaded is None:
        pytest.skip(f"compiled kernels unavailable ({kernel.path()})")
    return loaded


def _split_both_ways(compiled, X, y, subset, min_leaf, n_classes=2, rows=None):
    """The compiled and the numpy split of the node ``rows``, checked equal."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    subset = np.asarray(subset, dtype=np.int64)
    got_rows, want_rows = rows.copy(), rows.copy()
    got = compiled.split_search(X, y, got_rows, n_classes, min_leaf)(0, rows.size, subset)
    want = _numpy_split_search(X, y, want_rows, n_classes, min_leaf)(0, rows.size, subset)
    if want is None:
        assert got is None
    else:
        assert got[0] == want[0]
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        assert got[2:] == want[2:]
    assert got_rows.tobytes() == want_rows.tobytes()
    return got, got_rows


def test_constant_subset_gives_a_leaf(compiled):
    X = np.column_stack([np.full(6, 2.0), np.arange(6.0), np.full(6, -1.0)])
    split, rows = _split_both_ways(compiled, X, [0, 0, 0, 1, 1, 1], [0, 2], 1)
    assert split is None and rows.tolist() == list(range(6))


def test_twice_min_leaf_splits_only_at_the_middle(compiled):
    # unconstrained, the best cut isolates row 0; min_leaf 3 of 6 leaves 3 | 3
    X = np.array([[4.0], [1.0], [6.0], [2.0], [3.0], [5.0]])
    y = [1, 0, 1, 1, 1, 1]
    split, rows = _split_both_ways(compiled, X, y, [0], 3)
    assert split == (0, 3.5, [1, 2], [0, 3])
    assert rows.tolist() == [1, 3, 4, 0, 2, 5]  # left then right, each in node order
    # equal values either side of the middle cut: no valid cut at all
    tied = np.array([[3.0], [1.0], [6.0], [2.0], [3.0], [5.0]])
    assert _split_both_ways(compiled, tied, y, [0], 3)[0] is None


def test_equal_gains_take_the_earliest_drawn_feature(compiled):
    # column c is (c + 1) * x: every column splits the rows alike
    X = np.arange(1.0, 7.0)[:, None] * np.arange(1.0, 4.0)[None, :]
    y = [0, 0, 0, 1, 1, 1]
    for subset in ([2, 0, 1], [1, 2], [0, 1, 2]):
        split, _ = _split_both_ways(compiled, X, y, subset, 1)
        assert split[0] == 0 and split[1] == 3.5 * (subset[0] + 1)


def test_no_positive_gain_gives_a_leaf(compiled):
    # each side of the only cut holds one row of each class: gain exactly 0
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    assert _split_both_ways(compiled, X, [0, 1, 1, 0], [0], 1)[0] is None


def test_signed_zero_ties_split_alike(compiled):
    X = np.array([[0.0], [-0.0], [1.0], [-0.0], [0.0], [2.0], [-1.0], [-0.0]])
    y = [0, 1, 1, 0, 0, 1, 1, 0]
    for min_leaf in (1, 2):
        split, _ = _split_both_ways(compiled, X, y, [0], min_leaf, rows=[1, 0, 4, 3, 2, 5, 7, 6])
        assert split is not None


def test_midpoint_rounding_up_to_hi_falls_back_to_lo(compiled):
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi  # the midpoint of adjacent floats rounds up here
    X = np.array([[lo], [lo], [hi], [hi]])
    split, _ = _split_both_ways(compiled, X, [0, 0, 1, 1], [0], 1)
    assert np.float64(split[1]).tobytes() == lo.tobytes()
    assert split[2:] == ([2, 0], [0, 2])


def test_class_squares_sum_in_numpys_order(compiled):
    # these nodes split elsewhere when the class squares are summed in
    # another order: numpy sums three as (a0 + a1) + a2 and nine with its
    # eight-way unrolled pairwise sum
    for (X, y, n_classes, min_leaf), want in zip(kernel._SUM_ORDER_NODES, [(0, -1.5), (2, -0.5)]):
        split, _ = _split_both_ways(compiled, X, y, [0, 1, 2], min_leaf, n_classes)
        assert split[:2] == want


def test_three_and_nine_classes_on_repeated_values(compiled):
    # nine classes reach numpy's unrolled pairwise sum over the class squares
    rng = np.random.default_rng(3)
    for n_classes in (3, 9):
        for trial in range(20):
            n = int(rng.integers(4, 60))
            X = np.round(rng.normal(size=(n, 6)) * 1.5)
            y = rng.integers(0, n_classes, size=n)
            rows = rng.integers(0, n, size=n)
            _split_both_ways(compiled, X, y, rng.choice(6, 3, replace=False), 1 + trial % 3,
                             n_classes, rows)


def _bad_tree_inputs():
    X, y, rows = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1]), np.arange(6)
    nan = X.copy()
    nan[2, 1] = np.nan
    inf = X.copy()
    inf[0, 0] = -np.inf
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


def test_compiled_search_refuses_a_node_or_subset_out_of_bounds(compiled):
    X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1])
    search = compiled.split_search(X, y, np.arange(6), 2, 1)
    for start, stop, subset in ((0, 7, [0]), (3, 3, [0]), (-1, 4, [0]), (0, 6, [0, 1, 0])):
        with pytest.raises(ValueError, match="node inside the 6 rows"):
            search(start, stop, np.array(subset))
    for subset in ([2], [0, -1]):
        with pytest.raises(ValueError, match="outside the 2 features"):
            search(0, 6, np.array(subset))
    assert search(0, 6, np.array([1, 0])) is not None
