"""Metric correctness against hand-worked values and naive oracles."""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import (
    naive_accuracy,
    naive_auc,
    naive_auc_binary,
    naive_f1_macro,
    naive_recall_macro,
    unique_rank_auc,
)
from fedtab.errors import (
    EmptyInputError,
    LengthMismatchError,
    NoPositivePairsError,
    ShapeMismatchError,
)
from fedtab.metrics import (
    MetricsReport,
    accuracy,
    auc_roc,
    compute_report,
    f1_macro,
    recall_macro,
)


def test_accuracy_hand_values():
    assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(100.0 * 2 / 3, abs=1e-12)
    assert accuracy([0, 1], [0, 1]) == 100.0
    assert accuracy([1, 0], [0, 1]) == 0.0


def test_recall_macro_hand_value():
    # class 0: 1 of 2 recovered; class 1: 1 of 1; class 2: 0 of 1
    assert recall_macro([0, 1, 1, 1], [0, 0, 1, 2], 3) == pytest.approx(0.5, abs=1e-12)


def test_recall_ignores_classes_absent_from_truth():
    # class 0 never occurs in truth, so only class 1 counts
    assert recall_macro([1, 0, 1], [1, 1, 1], 2) == pytest.approx(2 / 3, abs=1e-12)


def test_f1_macro_hand_values():
    # single present class: precision 1, recall 2/3, F1 = 0.8
    assert f1_macro([1, 0, 1], [1, 1, 1], 2) == pytest.approx(0.8, abs=1e-12)
    # three classes: F1 = 2/3, 1/2, 0 -> macro 7/18
    assert f1_macro([0, 1, 1, 1], [0, 0, 1, 2], 3) == pytest.approx(7 / 18, abs=1e-12)


def test_f1_zero_over_zero_is_zero():
    # class 1 present in truth but never predicted correctly or at all
    value = f1_macro([0, 0], [0, 1], 2)
    assert value == pytest.approx((2 / 3) / 2, abs=1e-12)


def test_auc_hand_value():
    assert auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1], 2) == pytest.approx(0.75, abs=1e-12)


def test_auc_all_ties_is_half():
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1], 2) == pytest.approx(0.5, abs=1e-12)


def test_auc_accepts_column_and_matrix_forms():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    truth = [0, 0, 1, 1]
    expected = auc_roc(scores, truth, 2)
    assert auc_roc(scores[:, None], truth, 2) == expected
    assert auc_roc(np.column_stack([1 - scores, scores]), truth, 2) == expected


def test_auc_multiclass_hand_value():
    scores = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.2, 0.5, 0.3]])
    truth = [0, 0, 1]
    # class 2 has no positives; class 0 AUC 0.5, class 1 AUC 0.5
    assert auc_roc(scores, truth, 3) == pytest.approx(0.5, abs=1e-12)


def test_auc_single_class_truth_raises():
    with pytest.raises(NoPositivePairsError):
        auc_roc([0.2, 0.4], [1, 1], 2)
    with pytest.raises(NoPositivePairsError):
        auc_roc(np.full((3, 3), 0.5), [2, 2, 2], 3)


def test_metrics_reject_bad_inputs():
    with pytest.raises(LengthMismatchError):
        accuracy([1, 0], [1])
    with pytest.raises(EmptyInputError):
        accuracy([], [])
    with pytest.raises(LengthMismatchError):
        auc_roc([0.1, 0.2], [0], 2)
    with pytest.raises(EmptyInputError):
        auc_roc([], [], 2)
    with pytest.raises(ShapeMismatchError):
        auc_roc(np.zeros((3, 4)), [0, 1, 2], 3)
    with pytest.raises(ValueError):
        recall_macro([0, 5], [0, 1], 2)


def test_report_validates_ranges():
    with pytest.raises(ValueError):
        MetricsReport(accuracy_pct=101.0, recall=0.5, f1=0.5, auc_roc=0.5, n_samples=4)
    with pytest.raises(ValueError):
        MetricsReport(accuracy_pct=50.0, recall=1.5, f1=0.5, auc_roc=0.5, n_samples=4)
    with pytest.raises(ValueError):
        MetricsReport(accuracy_pct=50.0, recall=0.5, f1=0.5, auc_roc=0.5, n_samples=0)


def test_compute_report_bundles_all_four():
    pred = np.array([0, 1, 1, 0])
    truth = np.array([0, 1, 0, 0])
    scores = np.array([0.2, 0.9, 0.6, 0.1])
    report = compute_report(pred, truth, scores, 2)
    assert report.accuracy_pct == accuracy(pred, truth)
    assert report.recall == recall_macro(pred, truth, 2)
    assert report.f1 == f1_macro(pred, truth, 2)
    assert report.auc_roc == auc_roc(scores, truth, 2)
    assert report.n_samples == 4


def _label_forms(labels: np.ndarray):
    """The same labels as a list, an int32 array and an integral float64 array."""
    return labels.tolist(), labels.astype(np.int32), labels.astype(np.float64)


@pytest.mark.parametrize("n", [63, 64, 65, 300])
@pytest.mark.parametrize("n_classes", [2, 3, 5, 9])
def test_compute_report_equals_the_metrics_called_alone(n, n_classes):
    rng = np.random.default_rng(n * 10 + n_classes)
    truth = rng.integers(0, n_classes, n)
    pred = np.where(rng.random(n) < 0.6, truth, rng.integers(0, n_classes, n))
    scores = np.round(rng.random((n, n_classes)), 2)
    column = scores if n_classes > 2 else scores[:, 1]
    report = compute_report(pred, truth, scores, n_classes)
    assert report == MetricsReport(
        accuracy_pct=accuracy(pred, truth),
        recall=recall_macro(pred, truth, n_classes),
        f1=f1_macro(pred, truth, n_classes),
        auc_roc=auc_roc(column, truth, n_classes),
        n_samples=n,
    )
    # every input form gives the int64 arrays' floats bit for bit
    for p, t in zip(_label_forms(pred), _label_forms(truth)):
        assert compute_report(p, t, scores, n_classes) == report
        assert accuracy(p, t) == report.accuracy_pct
        assert recall_macro(p, t, n_classes) == report.recall
        assert f1_macro(p, t, n_classes) == report.f1
        assert auc_roc(column, t, n_classes) == report.auc_roc


@pytest.mark.parametrize(("n", "correct"), [(63, 5), (65, 3)])
def test_accuracy_rounding_goes_by_row_count(n, correct):
    # up to 64 rows accuracy is 100 * c / n, above it 100 * (c / n); for
    # these (c, n) the two differ in the last bit
    assert 100.0 * correct / n != 100.0 * (correct / n)
    expected = 100.0 * correct / n if n <= 64 else 100.0 * (correct / n)
    truth = np.zeros(n, dtype=np.int64)
    truth[-1] = 1
    pred = truth.copy()
    pred[: n - correct] = 1
    scores = np.linspace(0.0, 1.0, n)
    for p, t in [(pred, truth), *zip(_label_forms(pred), _label_forms(truth))]:
        assert accuracy(p, t) == expected
        assert compute_report(p, t, scores, 2).accuracy_pct == expected


@pytest.mark.parametrize("n", [4, 100])
def test_compute_report_rejects_labels_out_of_range(n):
    truth = np.zeros(n, dtype=np.int64)
    truth[1] = 1
    scores = np.zeros((n, 2))
    for pred_bad, truth_bad in ((2, None), (-1, None), (None, 2)):
        pred, labels = truth.copy(), truth.copy()
        if pred_bad is not None:
            pred[0] = pred_bad
        if truth_bad is not None:
            labels[0] = truth_bad
        with pytest.raises(ValueError):
            compute_report(pred, labels, scores, 2)


def _binary_auc_cases():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 200))
        truth = rng.integers(0, 2, n)
        yield np.round(rng.random(n), int(rng.integers(0, 3))), truth  # rounded: many ties
        yield rng.random(n), truth
    truth = np.array([0, 1, 1, 0, 1, 0, 0])
    yield np.full(7, 0.25), truth  # one tie group
    yield np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.0]), truth  # signed zeros tie
    yield np.array([0.3, 0.1, 0.3, 0.2, 0.9, 0.3, 0.0]), np.array([0, 0, 1, 0, 0, 0, 0])
    yield np.array([0.3, 0.1, 0.3, 0.2, 0.9, 0.3, 0.0]), np.array([1, 1, 0, 1, 1, 1, 1])
    yield np.array([0.5, 0.5]), np.array([1, 0])


def test_binary_auc_equals_the_pairwise_count_bit_for_bit():
    """Both sides are an exact half-integer count and one division."""
    for column, truth in _binary_auc_cases():
        expected = naive_auc_binary(column.tolist(), (truth == 1).tolist())
        if expected is None:
            continue
        assert auc_roc(column, truth, 2) == expected
        assert auc_roc(np.column_stack([-column, column]), truth, 2) == expected
        assert auc_roc(column[:, None], truth, 2) == expected


def test_multiclass_auc_equals_the_unique_rank_form_bit_for_bit():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n_classes = int(rng.integers(3, 7))
        n = int(rng.integers(1, 300))
        truth = rng.integers(0, n_classes, n)
        scores = np.round(rng.random((n, n_classes)), int(rng.integers(0, 4)))
        scores[rng.random((n, n_classes)) < 0.1] = -0.0
        expected = unique_rank_auc(scores, truth, n_classes)
        if expected is None:
            with pytest.raises(NoPositivePairsError):
                auc_roc(scores, truth, n_classes)
        else:
            assert auc_roc(scores, truth, n_classes) == expected


def test_metrics_match_naive_oracles_on_random_cases():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n_classes = int(rng.integers(2, 5))
        n = int(rng.integers(1, 40))
        truth = rng.integers(0, n_classes, n)
        pred = rng.integers(0, n_classes, n)
        # one-decimal scores provoke plenty of AUC ties
        scores = np.round(rng.random((n, n_classes)), 1)

        assert accuracy(pred, truth) == pytest.approx(
            naive_accuracy(pred.tolist(), truth.tolist()), abs=1e-12
        )
        assert recall_macro(pred, truth, n_classes) == pytest.approx(
            naive_recall_macro(pred.tolist(), truth.tolist(), n_classes), abs=1e-12
        )
        assert f1_macro(pred, truth, n_classes) == pytest.approx(
            naive_f1_macro(pred.tolist(), truth.tolist(), n_classes), abs=1e-12
        )
        expected_auc = naive_auc(scores.tolist(), truth.tolist(), n_classes)
        if expected_auc is None:
            with pytest.raises(NoPositivePairsError):
                auc_roc(scores if n_classes > 2 else scores[:, 1], truth, n_classes)
        else:
            got = auc_roc(scores if n_classes > 2 else scores[:, 1], truth, n_classes)
            assert got == pytest.approx(expected_auc, abs=1e-12)
