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


# below this size the label metrics run on plain python ints; numpy's
# per-call overhead dwarfs the actual work for tiny inputs
_SMALL = 64

# frozenset(range(k)) per class count, for one-call label range checks
_LABEL_SETS: dict[int, frozenset[int]] = {}


def _small_pair(pred, truth) -> tuple[list[int], list[int]] | None:
    """Fast-path extraction for small 1-d integer arrays, else None."""
    if not (isinstance(pred, np.ndarray) and isinstance(truth, np.ndarray)):
        return None
    if pred.ndim != 1 or truth.ndim != 1 or pred.dtype.kind != "i" or truth.dtype.kind != "i":
        return None
    n = len(pred)
    if n > _SMALL:
        return None
    if n != len(truth):
        raise LengthMismatchError(f"pred has {n} entries, truth has {len(truth)}")
    if n == 0:
        raise EmptyInputError("metrics need at least one sample")
    return pred.tolist(), truth.tolist()


def _small_tallies(p: list[int], t: list[int], n_classes: int):
    """Range-check small label lists; return (hits.count, t.count, p.count)."""
    labels = _LABEL_SETS.get(n_classes)
    if labels is None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be at least 2, got {n_classes}")
        labels = _LABEL_SETS[n_classes] = frozenset(range(n_classes))
    if not (labels.issuperset(p) and labels.issuperset(t)):
        raise ValueError("labels outside [0, n_classes)")
    # the truth labels of the correctly predicted samples
    hits = list(compress(t, map(eq, p, t)))
    return hits.count, t.count, p.count


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


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = _as_labels(pred, "pred")
    t = _as_labels(truth, "truth")
    if p.shape[0] != t.shape[0]:
        raise LengthMismatchError(f"pred has {p.shape[0]} entries, truth has {t.shape[0]}")
    if p.shape[0] == 0:
        raise EmptyInputError("metrics need at least one sample")
    return p, t


def _confusion(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> np.ndarray:
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {n_classes}")
    if pred.min() < 0 or pred.max() >= n_classes:
        raise ValueError("pred labels outside [0, n_classes)")
    if truth.min() < 0 or truth.max() >= n_classes:
        raise ValueError("truth labels outside [0, n_classes)")
    # confusion[i, j] counts samples with truth i predicted j
    flat = truth * n_classes + pred
    return np.bincount(flat, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def accuracy(pred, truth) -> float:
    """Fraction of exact matches, in percent."""
    small = _small_pair(pred, truth)
    if small is not None:
        p, t = small
        return 100.0 * sum(map(eq, p, t)) / len(p)
    p, t = _check_pair(pred, truth)
    return 100.0 * float(np.mean(p == t))


def _recall_of(cm: np.ndarray) -> float:
    support = cm.sum(axis=1)
    present = support > 0
    per_class = cm.diagonal()[present] / support[present]
    return float(np.mean(per_class))


def _f1_of(cm: np.ndarray) -> float:
    tp = cm.diagonal().astype(np.float64)
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    present = support > 0
    per_class = 2.0 * tp[present] / (support + predicted)[present]
    return float(np.mean(per_class))


def recall_macro(pred, truth, n_classes: int) -> float:
    """Mean per-class recall over the classes present in truth."""
    small = _small_pair(pred, truth)
    if small is not None:
        hits_of, support_of, _ = _small_tallies(*small, n_classes)
        total = 0.0
        present = 0
        for c in range(n_classes):
            support = support_of(c)
            if support:
                total += hits_of(c) / support
                present += 1
        return total / present
    p, t = _check_pair(pred, truth)
    return _recall_of(_confusion(p, t, n_classes))


def f1_macro(pred, truth, n_classes: int) -> float:
    """Mean per-class F1 over the classes present in truth; 0/0 counts as 0."""
    small = _small_pair(pred, truth)
    if small is not None:
        hits_of, support_of, predicted_of = _small_tallies(*small, n_classes)
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
    p, t = _check_pair(pred, truth)
    return _f1_of(_confusion(p, t, n_classes))


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
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {n_classes}")
    if t.min() < 0 or t.max() >= n_classes:
        raise ValueError("truth labels outside [0, n_classes)")
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

    The labels are checked once.  Above ``_SMALL`` rows recall and F1 share
    one confusion matrix; at or below it the three label metrics take their
    own small-input path, as when called alone.
    """
    p, t = _check_pair(pred, truth)
    if t.shape[0] > _SMALL:
        cm = _confusion(p, t, n_classes)
        accuracy_pct = 100.0 * float(np.mean(p == t))
        recall, f1 = _recall_of(cm), _f1_of(cm)
    else:
        accuracy_pct = accuracy(p, t)
        recall = recall_macro(p, t, n_classes)
        f1 = f1_macro(p, t, n_classes)
    return MetricsReport(
        accuracy_pct=accuracy_pct,
        recall=recall,
        f1=f1,
        auc_roc=_auc(scores, t, n_classes),
        n_samples=int(t.shape[0]),
    )
