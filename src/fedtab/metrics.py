"""Classification metrics: accuracy, macro recall, macro F1, and ROC AUC.

All metrics are computed from integer label vectors (and, for AUC, a score
matrix) with exact tie and edge-case semantics:

- accuracy is reported in percent,
- macro recall and macro F1 average only over classes that occur in the
  truth vector, with 0/0 ratios defined as 0,
- AUC is the probability that a uniformly random positive scores above a
  uniformly random negative, ties counting one half.  The implementation
  uses the rank-sum identity U = R+ - n+ (n+ + 1) / 2, where R+ sums the
  positives' ranks and tied scores share the mean of their rank range, so
  each tied pair contributes exactly 0.5.  Ranks come from one sort per
  score column and are kept doubled: a tie group of c values starting at
  0-based sorted position p has twice-mean-rank 2p + c + 1, an integer.
  So 2U is an exact integer and the AUC is one division of the exact
  half-integer U by n+ n-, the same float the pairwise count gives.

Accuracy, recall and F1 each have one formula.  Recall and F1 read one
per-class tally of hits, support and predicted counts; accuracy reads the
hit count.  A result goes by the labels and the row count only, never by
the input's type.  Two choices go by row count:

- the tally: an int ndarray pair of up to ``_SMALL`` rows is counted in
  Python with ``list.count``, any other input through one numpy confusion
  matrix.  Counts are exact, so the method changes the speed only;
- the accuracy rounding: ``100 * c / n`` up to ``_SMALL`` rows and
  ``100 * (c / n)`` above, which differ in the last bit for some (c, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq

import numpy as np

from .errors import (
    EmptyInputError,
    LengthMismatchError,
    NoPositivePairsError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation: accuracy in percent, the other three in [0, 1]."""

    accuracy_pct: float
    recall: float
    f1: float
    auc_roc: float
    n_samples: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy_pct <= 100.0:
            raise ValueError(f"accuracy_pct out of range: {self.accuracy_pct}")
        for name in ("recall", "f1", "auc_roc"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")


# up to this many rows int ndarray labels become python int lists: numpy's
# per-call overhead dwarfs the counting there
_SMALL = 64

# frozenset(range(k)) per class count, for one-call label range checks
_LABEL_SETS: dict[int, frozenset[int]] = {}


def _as_labels(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ShapeMismatchError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        rounded = np.asarray(values, dtype=np.int64)
        if not np.array_equal(rounded, arr):
            raise ValueError(f"{name} must hold integer labels")
        arr = rounded
    return arr.astype(np.int64, copy=False)


def _pair(pred, truth) -> tuple[list[int], list[int]] | tuple[np.ndarray, np.ndarray]:
    """The checked labels: int lists for plain int ndarrays of up to ``_SMALL``
    rows, int64 arrays for any other input."""
    if (
        type(pred) is np.ndarray is type(truth)
        and pred.ndim == truth.ndim == 1 and pred.dtype.kind == truth.dtype.kind == "i"
        and len(pred) <= _SMALL
    ):
        p, t = pred.tolist(), truth.tolist()
    else:
        p, t = _as_labels(pred, "pred"), _as_labels(truth, "truth")
    n = len(p)
    if n != len(t):
        raise LengthMismatchError(f"pred has {n} entries, truth has {len(t)}")
    if n == 0:
        raise EmptyInputError("metrics need at least one sample")
    return p, t


def _label_set(n_classes: int) -> frozenset[int]:
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {n_classes}")
    return _LABEL_SETS.setdefault(n_classes, frozenset(range(n_classes)))


def _check_range(labels: np.ndarray, n_classes: int, name: str) -> None:
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"{name} labels outside [0, n_classes)")


def _tally(p, t, n_classes: int):
    """Range-check a checked pair; return its per-class count lookups
    (hits, support, predicted), each called with a class index."""
    labels = _LABEL_SETS.get(n_classes) or _label_set(n_classes)
    if isinstance(p, list):
        if not labels.issuperset(p + t):
            raise ValueError("labels outside [0, n_classes)")
        # the truth labels of the correctly predicted samples
        hits = list(compress(t, map(eq, p, t)))
        return hits.count, t.count, p.count
    _check_range(p, n_classes, "pred")
    _check_range(t, n_classes, "truth")
    # cm[i, j] counts samples with truth i predicted j
    cm = np.bincount(t * n_classes + p, minlength=n_classes**2).reshape(n_classes, n_classes)
    return tuple(v.tolist().__getitem__ for v in (cm.diagonal(), cm.sum(axis=1), cm.sum(axis=0)))


def _accuracy(correct: int, n: int) -> float:
    # the pinned goldens hold both roundings; ROADMAP item 3 retires the split
    return 100.0 * correct / n if n <= _SMALL else 100.0 * (correct / n)


def _recall(hits_of, support_of, n_classes: int) -> float:
    total = 0.0
    present = 0
    for c in range(n_classes):
        support = support_of(c)
        if support:
            total += hits_of(c) / support
            present += 1
    return total / present


def _f1(hits_of, support_of, predicted_of, n_classes: int) -> float:
    total = 0.0
    present = 0
    for c in range(n_classes):
        support = support_of(c)
        if support:
            # F1 = 2 TP / (support + predicted); the denominator is
            # positive whenever the class occurs in truth
            total += 2.0 * hits_of(c) / (support + predicted_of(c))
            present += 1
    return total / present


def accuracy(pred, truth) -> float:
    """Fraction of exact matches, in percent."""
    p, t = _pair(pred, truth)
    correct = sum(map(eq, p, t)) if isinstance(p, list) else int(np.count_nonzero(p == t))
    return _accuracy(correct, len(t))


def recall_macro(pred, truth, n_classes: int) -> float:
    """Mean per-class recall over the classes present in truth."""
    p, t = _pair(pred, truth)
    hits_of, support_of, _ = _tally(p, t, n_classes)
    return _recall(hits_of, support_of, n_classes)


def f1_macro(pred, truth, n_classes: int) -> float:
    """Mean per-class F1 over the classes present in truth; 0/0 counts as 0."""
    p, t = _pair(pred, truth)
    hits_of, support_of, predicted_of = _tally(p, t, n_classes)
    return _f1(hits_of, support_of, predicted_of, n_classes)


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float | None:
    """AUC for one positive-vs-rest column, or None when it is undefined."""
    n = positive.size
    n_pos = int(np.count_nonzero(positive))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores)
    sv = scores[order]
    # tie groups of the sorted scores (-0.0 == 0.0): their starts, then n
    edge = np.ones(n + 1, dtype=bool)
    np.not_equal(sv[1:], sv[:-1], out=edge[1:n])
    bounds = np.flatnonzero(edge)
    lo, hi = bounds[:-1], bounds[1:]
    # a group of c = hi - lo values has twice-mean-rank 2 lo + c + 1 = lo + hi + 1
    twice_rank = np.repeat(lo + hi + 1, hi - lo)
    twice_u = int(twice_rank[positive[order]].sum()) - n_pos * (n_pos + 1)
    return (twice_u / 2) / (n_pos * n_neg)


def auc_roc(scores, truth, n_classes: int) -> float:
    """ROC AUC; one-vs-rest macro average when n_classes exceeds 2.

    For the binary case ``scores`` may be a vector of positive-class scores
    or an (n, 2) matrix whose second column is used.  For three or more
    classes an (n, n_classes) matrix is required and classes lacking either
    positives or negatives are excluded from the average.  When no class
    contributes, NoPositivePairsError is raised.
    """
    t = _as_labels(truth, "truth")
    if t.size == 0:
        raise EmptyInputError("metrics need at least one sample")
    _label_set(n_classes)
    _check_range(t, n_classes, "truth")
    return _auc(scores, t, n_classes)


def _auc(scores, t: np.ndarray, n_classes: int) -> float:
    """auc_roc for labels already checked to lie in [0, n_classes)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 2 and s.shape[1] == 1:
        s = s[:, 0]
    if s.shape[0] != t.shape[0]:
        raise LengthMismatchError(f"scores cover {s.shape[0]} samples, truth {t.shape[0]}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")

    if n_classes == 2:
        if s.ndim == 1:
            column = s
        elif s.ndim == 2 and s.shape[1] == 2:
            column = s[:, 1]
        else:
            raise ShapeMismatchError(f"binary AUC needs a vector or (n, 2) scores, got {s.shape}")
        value = _binary_auc(column, t == 1)
        if value is None:
            raise NoPositivePairsError("truth holds a single class; AUC undefined")
        return value

    if s.ndim != 2 or s.shape[1] != n_classes:
        raise ShapeMismatchError(f"expected (n, {n_classes}) scores, got {s.shape}")
    per_class = []
    for c in range(n_classes):
        value = _binary_auc(s[:, c], t == c)
        if value is not None:
            per_class.append(value)
    if not per_class:
        raise NoPositivePairsError("no class has both positives and negatives; AUC undefined")
    return float(np.mean(per_class))


def compute_report(pred, truth, scores, n_classes: int) -> MetricsReport:
    """Bundle the four metrics for one prediction set.

    The labels are checked and counted once; each metric is the same
    formula its function alone uses.
    """
    p, t = _pair(pred, truth)
    hits_of, support_of, predicted_of = _tally(p, t, n_classes)
    n = len(t)
    return MetricsReport(
        accuracy_pct=_accuracy(sum(map(hits_of, range(n_classes))), n),
        recall=_recall(hits_of, support_of, n_classes),
        f1=_f1(hits_of, support_of, predicted_of, n_classes),
        auc_roc=_auc(scores, np.asarray(t), n_classes),
        n_samples=n,
    )
