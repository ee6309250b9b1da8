"""The bytes of every report format, pinned on one fixed table.

``tests/test_golden.py`` pins the delimited report of whole grid runs; this
pins all three formats on a table built by hand: two datasets, the second
missing two conditions (blank cells), a negative ``Difference`` and a model
label wider than its column header.
"""

from __future__ import annotations

import pytest

from fedtab.experiment import build_results_table, emit_report
from fedtab.metrics import MetricsReport


def report(acc, rec, f1, auc):
    return MetricsReport(accuracy_pct=acc, recall=rec, f1=f1, auc_roc=auc, n_samples=40)


CELLS = {
    ("A", "logistic", "central_clean"): report(91.254, 0.81236, 0.80004, 0.9),
    ("A", "logistic", "fl_clean"): report(92.5, 0.85, 0.79995, 0.91234),
    ("A", "logistic", "central_poisoned"): report(70.125, 0.6, 0.55555, 0.7),
    ("A", "logistic", "fl_poisoned"): report(88.0, 0.75, 0.7, 0.85),
    ("B", "logistic", "central_clean"): report(66.6666, 0.55551, 0.5, 0.75),
    ("B", "logistic", "fl_poisoned"): report(60.005, 0.4, 0.33333, 0.66667),
}

DELIMITED = """\
# Difference = Standard ML - FL
# Differences = |Poisoned FL - Standard Poisoned|
Dataset,Model,Metric,Standard ML,FL,Difference,Standard Poisoned,Poisoned FL,Differences
A,Logistic regression,Accuracy,91.25,92.50,-1.25,70.12,88.00,17.88
A,Logistic regression,Recall,0.8124,0.8500,-0.0376,0.6000,0.7500,0.1500
A,Logistic regression,F1-Score,0.8000,0.8000,0.0000,0.5555,0.7000,0.1445
A,Logistic regression,AUCROC,0.9000,0.9123,-0.0123,0.7000,0.8500,0.1500
B,Logistic regression,Accuracy,66.67,,,,60.01,
B,Logistic regression,Recall,0.5555,,,,0.4000,
B,Logistic regression,F1-Score,0.5000,,,,0.3333,
B,Logistic regression,AUCROC,0.7500,,,,0.6667,
"""

HUMAN = """\
# Difference = Standard ML - FL
# Differences = |Poisoned FL - Standard Poisoned|
Dataset  Model                Metric    Standard ML  FL      Difference  Standard Poisoned  Poisoned FL  Differences
-------  -------------------  --------  -----------  ------  ----------  -----------------  -----------  -----------
A        Logistic regression  Accuracy  91.25        92.50   -1.25       70.12              88.00        17.88
A        Logistic regression  Recall    0.8124       0.8500  -0.0376     0.6000             0.7500       0.1500
A        Logistic regression  F1-Score  0.8000       0.8000  0.0000      0.5555             0.7000       0.1445
A        Logistic regression  AUCROC    0.9000       0.9123  -0.0123     0.7000             0.8500       0.1500
B        Logistic regression  Accuracy  66.67                                               60.01
B        Logistic regression  Recall    0.5555                                              0.4000
B        Logistic regression  F1-Score  0.5000                                              0.3333
B        Logistic regression  AUCROC    0.7500                                              0.6667
"""

STRUCTURED = """\
{
  "columns": [
    "Standard ML",
    "FL",
    "Difference",
    "Standard Poisoned",
    "Poisoned FL",
    "Differences"
  ],
  "conventions": [
    "Difference = Standard ML - FL",
    "Differences = |Poisoned FL - Standard Poisoned|"
  ],
  "rows": [
    {
      "dataset": "A",
      "metric": "Accuracy",
      "model": "Logistic regression",
      "values": {
        "Difference": -1.25,
        "Differences": 17.88,
        "FL": 92.5,
        "Poisoned FL": 88.0,
        "Standard ML": 91.25,
        "Standard Poisoned": 70.12
      }
    },
    {
      "dataset": "A",
      "metric": "Recall",
      "model": "Logistic regression",
      "values": {
        "Difference": -0.0376,
        "Differences": 0.15,
        "FL": 0.85,
        "Poisoned FL": 0.75,
        "Standard ML": 0.8124,
        "Standard Poisoned": 0.6
      }
    },
    {
      "dataset": "A",
      "metric": "F1-Score",
      "model": "Logistic regression",
      "values": {
        "Difference": 0.0,
        "Differences": 0.1445,
        "FL": 0.8,
        "Poisoned FL": 0.7,
        "Standard ML": 0.8,
        "Standard Poisoned": 0.5555
      }
    },
    {
      "dataset": "A",
      "metric": "AUCROC",
      "model": "Logistic regression",
      "values": {
        "Difference": -0.0123,
        "Differences": 0.15,
        "FL": 0.9123,
        "Poisoned FL": 0.85,
        "Standard ML": 0.9,
        "Standard Poisoned": 0.7
      }
    },
    {
      "dataset": "B",
      "metric": "Accuracy",
      "model": "Logistic regression",
      "values": {
        "Difference": null,
        "Differences": null,
        "FL": null,
        "Poisoned FL": 60.01,
        "Standard ML": 66.67,
        "Standard Poisoned": null
      }
    },
    {
      "dataset": "B",
      "metric": "Recall",
      "model": "Logistic regression",
      "values": {
        "Difference": null,
        "Differences": null,
        "FL": null,
        "Poisoned FL": 0.4,
        "Standard ML": 0.5555,
        "Standard Poisoned": null
      }
    },
    {
      "dataset": "B",
      "metric": "F1-Score",
      "model": "Logistic regression",
      "values": {
        "Difference": null,
        "Differences": null,
        "FL": null,
        "Poisoned FL": 0.3333,
        "Standard ML": 0.5,
        "Standard Poisoned": null
      }
    },
    {
      "dataset": "B",
      "metric": "AUCROC",
      "model": "Logistic regression",
      "values": {
        "Difference": null,
        "Differences": null,
        "FL": null,
        "Poisoned FL": 0.6667,
        "Standard ML": 0.75,
        "Standard Poisoned": null
      }
    }
  ]
}
"""


@pytest.mark.parametrize("fmt, text", [
    ("delimited", DELIMITED), ("human", HUMAN), ("structured", STRUCTURED),
])
def test_every_report_format_renders_its_pinned_bytes(fmt, text):
    rows = build_results_table(CELLS, ("A", "B"), ("logistic",))
    assert emit_report(rows, fmt) == text
