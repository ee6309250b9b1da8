"""Synthetic tables and datasets used across the test suite.

Two file-backed generators mirror the shapes the package is built for: a
grades table whose integer target is binarized at a threshold, and a
three-class outcome table.  Both carry enough signal that every model
family separates them well, which lets tests assert meaningful accuracy
levels without real data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from fedtab.dataset import ColumnSpec, EncodedDataset, FeatureSchema
from fedtab.schemas import DatasetSpec


def grades_schema() -> FeatureSchema:
    columns = (
        ColumnSpec("study_time", "continuous"),
        ColumnSpec("prev_score", "continuous"),
        ColumnSpec("absences", "continuous"),
        ColumnSpec("support", "categorical"),
        ColumnSpec("campus", "categorical"),
        ColumnSpec("grade", "target"),
    )
    return FeatureSchema(columns, ("fail", "pass"), delimiter=";")


def write_grades_csv(path: Path, n: int = 360, seed: int = 7) -> Path:
    """Binary synthetic table with an integer grade column (0..20)."""
    rng = np.random.default_rng(seed)
    study = rng.normal(2.0, 1.0, n).clip(0, 6)
    prev = rng.normal(10.0, 3.0, n).clip(0, 20)
    absences = rng.poisson(3.0, n)
    support = rng.choice(["yes", "no"], n)
    campus = rng.choice(["north", "south"], n)
    latent = 0.75 * (prev - 10.0) + 1.2 * (study - 2.0) - 0.35 * (absences - 3.0)
    latent += np.where(support == "yes", 0.8, -0.8) + rng.normal(0.0, 1.5, n)
    grade = np.clip(np.round(10.0 + latent), 0, 20).astype(int)

    lines = ["study_time;prev_score;absences;support;campus;grade"]
    for i in range(n):
        lines.append(
            f"{study[i]:.3f};{prev[i]:.3f};{absences[i]};{support[i]};{campus[i]};{grade[i]}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def grades_dataset_spec(path: Path) -> DatasetSpec:
    return DatasetSpec(
        key="synthetic-grades",
        path=path,
        schema=grades_schema(),
        pass_threshold=10,
    )


def outcomes_schema() -> FeatureSchema:
    columns = (
        ColumnSpec("admission", "continuous"),
        ColumnSpec("units_first", "continuous"),
        ColumnSpec("units_second", "continuous"),
        ColumnSpec("age", "continuous"),
        ColumnSpec("mode", "categorical"),
        ColumnSpec("outcome", "target"),
    )
    return FeatureSchema(columns, ("left", "stay", "done"), delimiter=";")


def write_outcomes_csv(path: Path, n: int = 450, seed: int = 11) -> Path:
    """Three-class synthetic table separated by a latent progress score."""
    rng = np.random.default_rng(seed)
    admission = rng.normal(120.0, 15.0, n)
    units1 = rng.normal(5.0, 2.0, n).clip(0, 10)
    units2 = rng.normal(5.0, 2.0, n).clip(0, 10)
    age = rng.normal(22.0, 4.0, n).clip(17, 60)
    mode = rng.choice(["day", "evening", "online"], n)
    latent = 0.9 * (units2 - 5.0) + 0.6 * (units1 - 5.0) + 0.02 * (admission - 120.0)
    latent += rng.normal(0.0, 1.0, n)
    outcome = np.where(latent < -1.2, "left", np.where(latent > 1.2, "done", "stay"))

    lines = ["admission;units_first;units_second;age;mode;outcome"]
    for i in range(n):
        lines.append(
            f"{admission[i]:.2f};{units1[i]:.3f};{units2[i]:.3f};{age[i]:.1f};{mode[i]};{outcome[i]}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def outcomes_dataset_spec(path: Path) -> DatasetSpec:
    return DatasetSpec(key="synthetic-outcomes", path=path, schema=outcomes_schema())


def write_dataset_a_like(path: Path, n: int = 120, seed: int = 19) -> Path:
    """Random table with the exact header of benchmark dataset A.

    Grades correlate with the two earlier period grades, so models trained
    on it behave sensibly; everything else is noise over plausible levels.
    """
    from fedtab.schemas import student_performance_schema

    rng = np.random.default_rng(seed)
    schema = student_performance_schema()
    levels = {
        "school": ["GP", "MS"], "sex": ["F", "M"], "address": ["R", "U"],
        "famsize": ["GT3", "LE3"], "Pstatus": ["A", "T"],
        "Mjob": ["at_home", "health", "other", "services", "teacher"],
        "Fjob": ["at_home", "health", "other", "services", "teacher"],
        "reason": ["course", "home", "other", "reputation"],
        "guardian": ["father", "mother", "other"],
    }
    yes_no = ["yes", "no"]
    rows = []
    for _ in range(n):
        g1 = int(rng.integers(4, 18))
        g2 = int(np.clip(g1 + rng.integers(-3, 4), 0, 20))
        g3 = int(np.clip(round((g1 + g2) / 2 + rng.normal(0, 1.5)), 0, 20))
        cells = []
        for col in schema.columns:
            if col.name == "G1":
                cells.append(str(g1))
            elif col.name == "G2":
                cells.append(str(g2))
            elif col.name == "G3":
                cells.append(str(g3))
            elif col.name in levels:
                cells.append(str(rng.choice(levels[col.name])))
            elif col.kind == "categorical":
                cells.append(str(rng.choice(yes_no)))
            elif col.name == "age":
                cells.append(str(int(rng.integers(15, 23))))
            elif col.name == "absences":
                cells.append(str(int(rng.poisson(4))))
            else:
                cells.append(str(int(rng.integers(0, 5))))
        rows.append(";".join(cells))
    header = ";".join(c.name for c in schema.columns)
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_dataset_b_like(path: Path, n: int = 150, seed: int = 23) -> Path:
    """Random table with the exact header of benchmark dataset B."""
    from fedtab.schemas import academic_outcome_schema

    rng = np.random.default_rng(seed)
    schema = academic_outcome_schema()
    rows = []
    for _ in range(n):
        approved2 = float(rng.uniform(0, 10))
        latent = approved2 - 5.0 + rng.normal(0, 2.0)
        if latent < -2.0:
            target = "Dropout"
        elif latent > 2.0:
            target = "Graduate"
        else:
            target = "Enrolled"
        cells = []
        for col in schema.columns:
            if col.name == "Target":
                cells.append(target)
            elif col.name == "Marital status":
                cells.append(str(int(rng.integers(1, 5))))
            elif col.name == "Curricular units 2nd sem (approved)":
                cells.append(f"{approved2:.1f}")
            elif "grade" in col.name.lower():
                cells.append(f"{rng.uniform(95, 190):.1f}")
            else:
                cells.append(str(int(rng.integers(0, 30))))
        rows.append(";".join(cells))
    header = ";".join(c.name for c in schema.columns)
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def quote_strings(path: Path) -> Path:
    """Rewrite a ``;``-delimited table with each data cell that is not a number quoted.

    The UCI copy of table A quotes its strings this way.
    """
    header, *rows = path.read_text(encoding="utf-8").splitlines()

    def quoted(cell: str) -> str:
        try:
            float(cell)
        except ValueError:
            return f'"{cell}"'
        return cell

    rows = [";".join(map(quoted, row.split(";"))) for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def blob_dataset(
    n_per_class: int, n_classes: int = 2, n_features: int = 5, seed: int = 0, spread: float = 1.0
) -> EncodedDataset:
    """Well-separated gaussian blobs, already encoded."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 4.0, (n_classes, n_features))
    features = np.concatenate(
        [rng.normal(centers[c], spread, (n_per_class, n_features)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    shuffle = rng.permutation(labels.shape[0])
    names = tuple(f"x{j}" for j in range(n_features))
    return EncodedDataset(features[shuffle], labels[shuffle], n_classes, names)
