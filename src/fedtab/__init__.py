"""Federated vs centralized benchmarking of tabular classifiers.

The package simulates federated averaging over three classifiers trained
from scratch (logistic regression, linear SVM, random forest) on two
educational tabular datasets, and measures how much performance federation
costs and how much resilience it buys against random label flipping.
"""

from .attack import AttackConfig, flip_count, flip_labels
from .config import CONDITIONS, ExperimentConfig, OutputConfig, load_config
from .dataset import (
    ClientPartition,
    ColumnSpec,
    EncodedDataset,
    FeatureSchema,
    build_client_partitions,
    concat_datasets,
    partition_clients,
    standardize,
)
from .errors import FedtabError
from .experiment import (
    ResultRow,
    build_results_table,
    emit_report,
    run_condition,
    run_suite,
)
from .federation import (
    FederationConfig,
    RoundLog,
    RoundRecord,
    aggregate_forests,
    aggregate_parametric,
    evaluate_global,
    run_federated,
)
from .metrics import MetricsReport, accuracy, auc_roc, compute_report, f1_macro, recall_macro
from .models import (
    TRAIN_SETTINGS,
    Forest,
    LinearModel,
    TrainConfig,
    predict_labels,
    predict_scores,
    train_forest,
    train_logreg,
    train_svm,
)
from .schemas import DatasetSpec, builtin_dataset, load_dataset

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "CONDITIONS",
    "ClientPartition",
    "ColumnSpec",
    "DatasetSpec",
    "EncodedDataset",
    "ExperimentConfig",
    "FeatureSchema",
    "FederationConfig",
    "FedtabError",
    "Forest",
    "LinearModel",
    "MetricsReport",
    "OutputConfig",
    "ResultRow",
    "RoundLog",
    "RoundRecord",
    "TRAIN_SETTINGS",
    "TrainConfig",
    "accuracy",
    "aggregate_forests",
    "aggregate_parametric",
    "auc_roc",
    "build_client_partitions",
    "build_results_table",
    "builtin_dataset",
    "compute_report",
    "concat_datasets",
    "emit_report",
    "evaluate_global",
    "f1_macro",
    "flip_count",
    "flip_labels",
    "load_config",
    "load_dataset",
    "partition_clients",
    "predict_labels",
    "predict_scores",
    "recall_macro",
    "run_condition",
    "run_federated",
    "run_suite",
    "standardize",
    "train_forest",
    "train_logreg",
    "train_svm",
]
