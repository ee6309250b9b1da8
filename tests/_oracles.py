"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way: explicit loops straight
from the definitions, exact rational arithmetic where it matters, or, for a
kernel rewritten for speed, the plain array form it must match.  Nothing
at module level imports from the package, so agreement between these and
the fast implementations is meaningful evidence.  The csv reader imports
only the package's error classes and ``EncodedDataset``, inside its
functions, so that it raises and returns what the package's reader must;
``parse_report`` likewise builds the package's ``ResultRow``s.  The
objectives ``logistic_loss`` and ``hinge_objective`` call the package's
``_row_max`` and ``_signed_targets``, imported inside them, so the tests
that use them check those helpers too.
The one exception is the central-cell oracle at the end: it checks how the
package composes its own steps, not the steps, so it calls them in their
old, separate order.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


def naive_accuracy(pred, truth) -> float:
    hits = sum(1 for p, t in zip(pred, truth) if p == t)
    return 100.0 * hits / len(truth)


def naive_recall_macro(pred, truth, n_classes: int) -> float:
    recalls = []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(pred, truth) if t == c and p == c)
        fn = sum(1 for p, t in zip(pred, truth) if t == c and p != c)
        if tp + fn == 0:
            continue  # class absent from truth
        recalls.append(tp / (tp + fn))
    return sum(recalls) / len(recalls)


def naive_f1_macro(pred, truth, n_classes: int) -> float:
    f1s = []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(pred, truth) if t == c and p == c)
        fn = sum(1 for p, t in zip(pred, truth) if t == c and p != c)
        fp = sum(1 for p, t in zip(pred, truth) if t != c and p == c)
        if tp + fn == 0:
            continue  # class absent from truth
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn)
        if precision + recall == 0.0:
            f1s.append(0.0)
        else:
            f1s.append(2.0 * precision * recall / (precision + recall))
    return sum(f1s) / len(f1s)


def naive_auc_binary(scores, positive) -> float | None:
    """Pairwise definition: wins count 1, ties 0.5; None when undefined."""
    pos = [s for s, is_pos in zip(scores, positive) if is_pos]
    neg = [s for s, is_pos in zip(scores, positive) if not is_pos]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def naive_auc(scores, truth, n_classes: int) -> float | None:
    """Macro one-vs-rest AUC; binary uses the positive-class column."""
    if n_classes == 2:
        column = [row[1] if hasattr(row, "__len__") else row for row in scores]
        return naive_auc_binary(column, [t == 1 for t in truth])
    per_class = []
    for c in range(n_classes):
        value = naive_auc_binary([row[c] for row in scores], [t == c for t in truth])
        if value is not None:
            per_class.append(value)
    if not per_class:
        return None
    return sum(per_class) / len(per_class)


def unique_rank_auc(scores, truth, n_classes: int) -> float | None:
    """Macro one-vs-rest AUC on ``np.unique`` average ranks, the old float form.

    Each column's ranks come from ``np.unique`` (tied values share the mean
    of their rank range, a half-integer float), the positives' ranks are
    summed as floats and U is divided by n+ n-.  The class AUCs are then
    averaged with ``np.mean`` as ``auc_roc`` does.  None when undefined.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    per_class = []
    for c in range(n_classes):
        positive = t == c
        n_pos = int(positive.sum())
        n_neg = positive.size - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        _, inverse, counts = np.unique(s[:, c], return_inverse=True, return_counts=True)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranks = (starts + (counts + 1) / 2.0)[inverse]
        u = float(np.sum(ranks[positive])) - n_pos * (n_pos + 1) / 2.0
        per_class.append(u / (n_pos * n_neg))
    if not per_class:
        return None
    return float(np.mean(per_class))


def reduction_softmax(z):
    """Softmax shifted by numpy's ``max(axis=1)`` row reduction."""
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def logistic_loss(model, X, y, l2: float) -> float:
    """Mean cross-entropy plus (l2 / 2) * ||W||^2; the bias is not penalized."""
    from fedtab.models import _row_max

    z = X @ model.weights.T + model.bias
    if model.n_classes == 2:
        margin = z[:, 0]
        target = y.astype(np.float64)
        # stable form of log(1 + exp(z)) - y * z
        ce = np.maximum(margin, 0.0) - margin * target + np.log1p(np.exp(-np.abs(margin)))
        data_term = float(np.mean(ce))
    else:
        logz = z - _row_max(z)
        log_norm = np.log(np.exp(logz).sum(axis=1))
        data_term = float(np.mean(log_norm - logz[np.arange(y.shape[0]), y]))
    return data_term + 0.5 * l2 * float(np.sum(model.weights**2))


def hinge_objective(model, X, y, l2: float) -> float:
    """Mean multi-row hinge loss plus (l2 / 2) * ||W||^2."""
    from fedtab.models import _signed_targets

    signed = _signed_targets(y, model.n_classes)
    margins = X @ model.weights.T + model.bias
    hinge = np.maximum(0.0, 1.0 - signed * margins)
    return float(np.mean(hinge.sum(axis=1))) + 0.5 * l2 * float(np.sum(model.weights**2))


def exact_weighted_average(vectors, counts):
    """Fraction-exact FedAvg of plain float lists; returns floats."""
    total = sum(counts)
    out = []
    for entries in zip(*vectors):
        acc = Fraction(0)
        for value, count in zip(entries, counts):
            acc += Fraction(value) * Fraction(count, total)
        out.append(float(acc))
    return out


def vectorized_svm(X, labels, n_classes, epochs, learning_rate, l2, seed, weights=None, bias=None):
    """The per-sample hinge-loss SGD loop written with numpy array ops.

    Same algorithm as ``train_svm``: epoch t steps with ``learning_rate / t``
    over a fresh permutation from ``default_rng(seed)``, the decay carried
    as a scalar and folded in once per epoch.  Every margin test and update
    here is one vectorized numpy expression over the weight rows, so a
    scalar rewrite must match it bit for bit.  Returns (weights, bias).
    """
    rows = 1 if n_classes == 2 else n_classes
    weights = np.zeros((rows, X.shape[1])) if weights is None else weights.copy()
    bias = np.zeros(rows) if bias is None else bias.copy()
    if n_classes == 2:
        signed = np.where(labels == 1, 1.0, -1.0)[:, None]
    else:
        signed = np.where(labels[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
    rng = np.random.default_rng(seed)
    X = np.ascontiguousarray(X)
    for epoch in range(1, epochs + 1):
        lr = learning_rate / epoch
        decay = 1.0 - lr * l2
        scale = 1.0
        for i in rng.permutation(X.shape[0]):
            x = X[i]
            target = signed[i]
            margins = target * (scale * (weights @ x) + bias)
            scale *= decay
            violating = np.flatnonzero(margins < 1.0)
            if violating.size:
                step = (lr / scale) * target[violating]
                weights[violating] += step[:, None] * x
                bias[violating] += lr * target[violating]
        weights *= scale
    return weights, bias


def _gini(counts, size):
    ratios = counts / np.asarray(size, dtype=np.float64)
    total = np.zeros(ratios.shape[:-1])
    for c in range(ratios.shape[-1]):  # the class squares in class order
        total = total + ratios[..., c] * ratios[..., c]
    return 1.0 - total


def per_feature_tree(X, y, rows, depth, rng, n_classes, max_depth, min_leaf):
    """Grow one CART tree the plain way, one drawn feature at a time.

    Every node draws ceil(sqrt(d)) features from ``rng``; each feature is
    sorted on its own, scored at its valid cuts, and replaces the best split
    so far only on a strictly larger gain.  ``train_forest`` searches the
    whole subset in one pass and must grow these trees bit for bit.  Returns
    the tree as nested dicts: ``{"counts": [...]}`` for a leaf, else
    feature, threshold, left and right.
    """
    counts = np.bincount(y[rows], minlength=n_classes)
    n = rows.shape[0]
    if depth >= max_depth or n < 2 * min_leaf or counts.max() == n:
        return {"counts": [int(c) for c in counts]}

    d = X.shape[1]
    subset = rng.choice(d, size=math.ceil(math.sqrt(d)), replace=False)
    parent_gini = _gini(counts, n)
    sizes_left = np.arange(1, n)
    best_gain = 0.0
    best = None
    for f in subset:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        onehot = np.equal(y[rows][order, None], np.arange(n_classes)[None, :])
        boundary = sv[:-1] != sv[1:]
        valid = boundary & (sizes_left >= min_leaf) & ((n - sizes_left) >= min_leaf)
        if not valid.any():
            continue
        cum = np.cumsum(onehot, axis=0)[:-1][valid]
        nl = sizes_left[valid]
        nr = n - nl
        weighted = (nl * _gini(cum, nl[:, None]) + nr * _gini(counts - cum, nr[:, None])) / n
        gains = parent_gini - weighted
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            cut = int(nl[k]) - 1  # position in the sorted order
            lo, hi = sv[cut], sv[cut + 1]
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:  # adjacent floats can round the midpoint up
                threshold = lo
            best_gain = float(gains[k])
            best = (int(f), float(threshold))
    if best is None:
        return {"counts": [int(c) for c in counts]}

    f, threshold = best
    go_left = X[rows, f] <= threshold
    grow = (rng, n_classes, max_depth, min_leaf)
    return {
        "feature": f,
        "threshold": threshold,
        "left": per_feature_tree(X, y, rows[go_left], depth + 1, *grow),
        "right": per_feature_tree(X, y, rows[~go_left], depth + 1, *grow),
    }


def per_feature_forest(X, y, n_classes, n_trees, max_depth, min_leaf, seed):
    """Trees of ``per_feature_tree`` on the bootstraps ``train_forest`` draws."""
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng((seed, t))
        bootstrap = rng.integers(0, n, size=n)
        trees.append(per_feature_tree(X, y, bootstrap, 0, rng, n_classes, max_depth, min_leaf))
    return trees


def _preorder(node, out):
    """Flatten a nested oracle tree to preorder node dicts."""
    i = len(out)
    out.append(node)
    if "counts" not in node:
        left = _preorder(node["left"], out)
        right = _preorder(node["right"], out)
        out[i] = dict(node, left=left, right=right)
    return i


def assert_trees_match(trees, oracle_trees, context=None):
    """Assert that node-array trees are the oracle's, node for node and bit for bit."""
    assert len(trees) == len(oracle_trees), context
    for tree, oracle in zip(trees, oracle_trees):
        nodes = []
        _preorder(oracle, nodes)
        assert tree.feature.size == len(nodes), context
        for i, node in enumerate(nodes):
            if "counts" in node:
                assert tree.feature[i] == -1, (context, i)
                assert tree.counts[i].tolist() == node["counts"], (context, i)
            else:
                assert tree.feature[i] == node["feature"], (context, i)
                assert json.dumps(float(tree.threshold[i])) == json.dumps(node["threshold"])
                assert tree.left[i] == node["left"], (context, i)
                assert tree.right[i] == node["right"], (context, i)


def assert_same_tree_bytes(trees, others):
    """Assert that two runs grew the same node arrays: dtypes, shapes and bytes."""
    assert len(trees) == len(others)
    for tree, other in zip(trees, others):
        for name in ("feature", "threshold", "left", "right", "counts"):
            got, want = getattr(tree, name), getattr(other, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def assert_walkable_tree(tree, n_classes, n_features):
    """Assert that a tree's node arrays are ones the prediction walk can follow.

    Only ``train_forest`` builds trees, and the compiled walk reads their
    arrays unchecked, so every grown tree must hold these: integer node
    arrays of one length in depth-first preorder, each split's children
    after it and inside the tree, one parent per node but the root, leaves
    marked -1 with no children and a zero threshold, one row of
    ``n_classes`` non-negative counts per node, a non-empty row at each
    leaf, and a split's counts the sum of its children's.
    """
    feature, threshold, left, right, counts = (
        tree.feature, tree.threshold, tree.left, tree.right, tree.counts
    )
    for name, a in (("feature", feature), ("threshold", threshold), ("left", left), ("right", right)):
        assert a.ndim == 1, f"{name} is not one-dimensional"
    n = feature.size
    assert n >= 1 and threshold.size == left.size == right.size == n, "node arrays differ in length"
    for name, a in (("feature", feature), ("left", left), ("right", right), ("counts", counts)):
        assert a.dtype.kind == "i", f"{name} is not an integer array"
    assert threshold.dtype.kind == "f", "threshold is not a float array"
    assert counts.shape == (n, n_classes), "counts are not one row of n_classes per node"
    assert counts.min() >= 0, "a class count is negative"
    assert feature.min() >= -1 and feature.max() < n_features, "a feature is out of range"
    leaf = feature == -1
    assert np.all(left[leaf] == -1) and np.all(right[leaf] == -1), "a leaf has children"
    assert np.all(threshold[leaf] == 0.0), "a leaf has a threshold"
    assert np.all(counts[leaf].sum(axis=1) > 0), "a leaf no training row reached"
    split = np.flatnonzero(~leaf)
    assert np.all(np.isfinite(threshold[split])), "a split threshold is not finite"
    children = np.concatenate([left[split], right[split]])
    parents = np.concatenate([split, split])
    assert np.all(children > parents), "a child does not come after its parent"
    assert np.all(children < n), "a child is past the last node"
    assert np.array_equal(left[split], split + 1), "a left child does not follow its parent"
    assert np.array_equal(np.sort(children), np.arange(1, n)), "a node has not one parent"
    assert np.array_equal(counts[split], counts[left[split]] + counts[right[split]]), (
        "a split's counts are not its children's sum"
    )


def parse_report(text: str):
    """Parse a delimited report back into its ``ResultRow``s: ``emit_report``'s inverse.

    A row whose metric is not in ``METRICS``, or a non-empty cell that is
    not a number, raises ``InvalidConfigError`` naming the line.
    """
    from fedtab.errors import InvalidConfigError
    from fedtab.experiment import METRICS, RESULT_COLUMNS, ResultRow

    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidConfigError("report has no header line")
    header = lines[0].split(",")
    expected = list(("Dataset", "Model", "Metric") + RESULT_COLUMNS)
    if header != expected:
        raise InvalidConfigError(f"unexpected report header: {header}")
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(expected):
            raise InvalidConfigError(f"report line has {len(parts)} fields: {ln!r}")
        dataset, model, metric = parts[:3]
        if metric not in METRICS:
            raise InvalidConfigError(f"report line has unknown metric {metric!r}: {ln!r}")
        try:
            cells = tuple(float(p) if p else None for p in parts[3:])
        except ValueError:
            raise InvalidConfigError(f"report line has a non-numeric cell: {ln!r}") from None
        rows.append(ResultRow(dataset, model, metric, cells))
    return tuple(rows)


def round_robin_partition(labels, n_clients: int, seed: int) -> list[np.ndarray]:
    """Client row sets: each class shuffled, then dealt one row at a time.

    The cursor carries over from one class to the next; the classes go in
    ``np.unique`` order and draw one permutation each from ``default_rng(seed)``.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n_clients)]
    cursor = 0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        for row in members[rng.permutation(members.shape[0])]:
            buckets[cursor].append(int(row))
            cursor = (cursor + 1) % n_clients
    return [np.sort(np.asarray(b, dtype=np.int64)) for b in buckets]


def per_cell_encode(rows, columns, target_classes):
    """Unscaled features, labels and feature names, one Python step per cell.

    ``columns`` lists (name, kind) in the rows' column order, kind being
    "continuous", "categorical" or "target"; categorical levels are the
    column's sorted distinct values.
    """
    blocks, names, labels = [], [], None
    for j, (name, kind) in enumerate(columns):
        if kind == "continuous":
            block = np.empty((len(rows), 1))
            for i, row in enumerate(rows):
                block[i, 0] = float(row[j])
            blocks.append(block)
            names.append(name)
        elif kind == "categorical":
            levels = sorted({row[j] for row in rows})
            block = np.zeros((len(rows), len(levels)))
            for i, row in enumerate(rows):
                for k, level in enumerate(levels):
                    if row[j] == level:
                        block[i, k] = 1.0
            blocks.append(block)
            names.extend(f"{name}={level}" for level in levels)
        else:
            labels = np.array([list(target_classes).index(row[j]) for row in rows], dtype=np.int64)
    return np.concatenate(blocks, axis=1), labels, names


class RawTable(NamedTuple):
    """Parsed but not yet encoded cells, in schema column order."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column_index(self, name: str) -> int:
        return self.header.index(name)

    def column(self, name: str) -> list[str]:
        j = self.column_index(name)
        return [row[j] for row in self.rows]


def _clean_cell(cell: str) -> str:
    cell = cell.strip()
    if len(cell) >= 2 and cell[0] == '"' and cell[-1] == '"':
        cell = cell[1:-1].strip()
    return cell


def _records(path, reader):
    """``reader``'s records, with a file it cannot decode or parse as a data error."""
    from fedtab.errors import UnreadableFileError

    try:
        yield from reader
    except UnicodeDecodeError as err:
        raise UnreadableFileError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise UnreadableFileError(f"{path}: line {reader.line_num}: {err}") from None


def csv_read_table(path, schema) -> RawTable:
    """The file's cells through the csv module, cleaned, in schema column order.

    Header matching ignores column order and surrounding whitespace or
    quotes; a missing, unexpected or duplicate column name is an error, and
    so is a row whose cell count differs from the header's.  Blank lines
    are skipped, a leading UTF-8 byte order mark is dropped, and each cell
    is stripped of surrounding whitespace, then of one pair of quotes.
    """
    from fedtab.errors import EmptyTableError, HeaderMismatchError, RaggedRowError

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=";", quotechar='"')
        records = _records(path, reader)
        try:
            raw_header = next(records)
        except StopIteration:
            raise EmptyTableError(f"{path}: file is empty") from None
        header = tuple(_clean_cell(c) for c in raw_header)
        if len(set(header)) != len(header):
            dupes = sorted({c for c in header if header.count(c) > 1})
            raise HeaderMismatchError(f"{path}: duplicate header columns {dupes}")
        names = [c.name for c in schema.columns]
        missing = sorted(set(names) - set(header))
        extra = sorted(set(header) - set(names))
        if missing or extra:
            raise HeaderMismatchError(
                f"{path}: missing columns {missing}, unexpected columns {extra}"
            )
        rows = []
        for parsed in records:
            if not parsed:
                continue
            if len(parsed) != len(header):
                raise RaggedRowError(
                    f"{path}: line {reader.line_num} has {len(parsed)} cells, "
                    f"expected {len(header)}"
                )
            cells = dict(zip(header, map(_clean_cell, parsed)))
            rows.append(tuple(cells[name] for name in names))
    if not rows:
        raise EmptyTableError(f"{path}: no data rows")
    return RawTable(tuple(names), tuple(rows))


def csv_binarize(raw: RawTable, grade_column: str, pass_threshold: int) -> RawTable:
    """Integer grades to 'pass' (at or above the threshold) or 'fail'."""
    from fedtab.errors import NonIntegerGradeError

    j = raw.column_index(grade_column)
    rows = []
    for i, row in enumerate(raw.rows):
        try:
            label = "pass" if int(row[j]) >= pass_threshold else "fail"
        except ValueError:
            raise NonIntegerGradeError(f"row {i + 1}: grade {row[j]!r} is not an integer") from None
        rows.append(row[:j] + (label,) + row[j + 1 :])
    return RawTable(raw.header, tuple(rows))


def csv_encode(raw: RawTable, schema):
    """``per_cell_encode`` of checked cells, as a read-only ``EncodedDataset``.

    Continuous columns are checked in schema order, each cell by ``float()``
    in row order, then the target; the first bad cell is the error.
    """
    from fedtab.dataset import EncodedDataset
    from fedtab.errors import NonNumericCellError, UnknownTargetClassError

    for col in schema.columns:
        if col.kind != "continuous":
            continue
        for i, cell in enumerate(raw.column(col.name)):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCellError(
                    f"column {col.name!r}, row {i + 1}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCellError(
                    f"column {col.name!r}, row {i + 1}: non-finite value {cell!r}"
                )
    target = next(c.name for c in schema.columns if c.kind == "target")
    for i, cell in enumerate(raw.column(target)):
        if cell not in schema.target_classes:
            raise UnknownTargetClassError(
                f"row {i + 1}: target {cell!r} not in {list(schema.target_classes)}"
            )
    columns = [(c.name, c.kind) for c in schema.columns]
    features, labels, names = per_cell_encode(raw.rows, columns, schema.target_classes)
    features.flags.writeable = labels.flags.writeable = False
    return EncodedDataset(features, labels, len(schema.target_classes), tuple(names))


def csv_load_dataset(spec):
    """A spec's table read through the csv module, cell by cell: the reference reader."""
    raw = csv_read_table(spec.path, spec.schema)
    if spec.pass_threshold is not None:
        raw = csv_binarize(raw, spec.schema.target_column, spec.pass_threshold)
    return csv_encode(raw, spec.schema)


def standardize_oracle(data, schema, fit_rows, row_sets):
    """``dataset.standardize``'s blocks, z-scored one continuous column at a time.

    Each column's mean and population std are the 1-d ``np.mean`` and
    ``np.std`` of its fit rows, gathered in the order given; a zero-spread
    column encodes to 0.0 and every other column is copied.  Returns one
    (features, labels) pair per row set; no argument is checked.
    """
    fit = np.asarray(fit_rows, dtype=np.int64)
    picks = [np.asarray(rows, dtype=np.int64) for rows in row_sets]
    blocks = [data.features[idx] for idx in picks]
    for col in schema.feature_columns("continuous"):
        j = data.feature_names.index(col.name)
        fitted = data.features[fit, j]
        mean, scale = np.mean(fitted), np.std(fitted)
        for block in blocks:
            block[:, j] = 0.0 if scale == 0.0 else (block[:, j] - mean) / scale
    return [(block, data.labels[idx]) for block, idx in zip(blocks, picks)]


def central_split_oracle(data, schema, n_clients: int, test_fraction: float, seed: int):
    """The centralized train and test sets as the old two-stage rule built them.

    Deal the rows to clients, split each client's rows, z-score every
    client's rows with statistics from the sorted union of all training
    rows, then concatenate the client sets in client order.  Returns
    (train rows, test rows, train set, test set).
    """
    from fedtab.dataset import (
        concat_datasets,
        partition_clients,
        standardize,
        stratified_split_indices,
    )

    split_rows = []
    for k, rows in enumerate(partition_clients(data, n_clients, seed)):
        train, test = stratified_split_indices(data.labels[rows], test_fraction, seed ^ k)
        split_rows.append((rows[train], rows[test]))
    pooled_train = np.sort(np.concatenate([train for train, _ in split_rows]))
    parts = [standardize(data, schema, pooled_train, rows) for rows in split_rows]
    return (
        np.concatenate([train for train, _ in split_rows]),
        np.concatenate([test for _, test in split_rows]),
        concat_datasets([train for train, _ in parts]),
        concat_datasets([test for _, test in parts]),
    )


def central_report_oracle(data, schema, cfg, model_kind: str, condition: str, master_seed: int):
    """A central cell's report as computed before it ran as a one-client federation.

    Flip the pooled training labels with no malicious client and seed
    ``attack_seed ^ master_seed`` when poisoned, train with the master seed
    for ``epoch_budget`` epochs and evaluate on the pooled test set.
    """
    from dataclasses import replace

    from fedtab.attack import AttackConfig, flip_labels
    from fedtab.dataset import EncodedDataset
    from fedtab.metrics import compute_report
    from fedtab.models import predict_scores, train_forest, train_logreg, train_svm

    _, _, train, test = central_split_oracle(
        data, schema, cfg.n_clients, cfg.test_fraction, master_seed
    )
    if condition == "central_poisoned":
        attack = AttackConfig(cfg.flip_fraction, frozenset(), cfg.attack_seed ^ master_seed)
        labels, _ = flip_labels(train.labels, train.n_classes, attack)
        train = EncodedDataset(train.features, labels, train.n_classes, train.feature_names)
    train_cfg = replace(cfg.train_config(model_kind), seed=master_seed, epochs=cfg.epoch_budget)
    trainer = {"forest": train_forest, "logistic": train_logreg, "svm": train_svm}[model_kind]
    model = trainer(train, train_cfg)
    scores = predict_scores(model, test.features)
    pred = np.argmax(scores, axis=1).astype(np.int64)
    return compute_report(pred, test.labels, scores, test.n_classes)
