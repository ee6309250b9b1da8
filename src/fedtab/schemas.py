"""Built-in schemas for the two benchmark tables.

Dataset A is the secondary-school mathematics table: 395 records, 32
predictor columns (15 continuous, 17 categorical), and a final grade that
is binarized to pass / fail at 10 of 20 points.  Both earlier period grades
stay in as predictors.

Dataset B is the higher-education outcome table: 4424 records, 36 predictor
columns (35 continuous, one categorical) and a three-way target of Dropout,
Enrolled, or Graduate.  Its one categorical column is the integer-coded
marital status field; the remaining coded columns are ordinal enough that
they are treated as continuous.

``load_dataset`` reads a spec's file into its encoded table, through
``dataset.read_encoded``: one numpy text pass, or the error that names the
file's first fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dataset import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_TARGET,
    ColumnSpec,
    EncodedDataset,
    FeatureSchema,
    read_encoded,
)
from .errors import InvalidConfigError

GRADE_PASS_THRESHOLD = 10

_A_CATEGORICAL = (
    "school", "sex", "address", "famsize", "Pstatus", "Mjob", "Fjob", "reason",
    "guardian", "schoolsup", "famsup", "paid", "activities", "nursery", "higher",
    "internet", "romantic",
)
# file column order, so loaded tables keep their familiar layout
_A_ORDER = (
    "school", "sex", "age", "address", "famsize", "Pstatus", "Medu", "Fedu",
    "Mjob", "Fjob", "reason", "guardian", "traveltime", "studytime", "failures",
    "schoolsup", "famsup", "paid", "activities", "nursery", "higher", "internet",
    "romantic", "famrel", "freetime", "goout", "Dalc", "Walc", "health",
    "absences", "G1", "G2", "G3",
)

_B_CATEGORICAL = ("Marital status",)
_B_CONTINUOUS = (
    "Application mode", "Application order", "Course",
    "Daytime/evening attendance", "Previous qualification",
    "Previous qualification (grade)", "Nacionality", "Mother's qualification",
    "Father's qualification", "Mother's occupation", "Father's occupation",
    "Admission grade", "Displaced", "Educational special needs", "Debtor",
    "Tuition fees up to date", "Gender", "Scholarship holder",
    "Age at enrollment", "International",
    "Curricular units 1st sem (credited)", "Curricular units 1st sem (enrolled)",
    "Curricular units 1st sem (evaluations)", "Curricular units 1st sem (approved)",
    "Curricular units 1st sem (grade)", "Curricular units 1st sem (without evaluations)",
    "Curricular units 2nd sem (credited)", "Curricular units 2nd sem (enrolled)",
    "Curricular units 2nd sem (evaluations)", "Curricular units 2nd sem (approved)",
    "Curricular units 2nd sem (grade)", "Curricular units 2nd sem (without evaluations)",
    "Unemployment rate", "Inflation rate", "GDP",
)
_B_ORDER = _B_CATEGORICAL + _B_CONTINUOUS + ("Target",)


def _schema(
    order: tuple[str, ...], categorical: tuple[str, ...], target: str, classes: tuple[str, ...]
) -> FeatureSchema:
    """Columns in file ``order``: ``target``, the ``categorical`` ones, the rest continuous."""
    kinds = {**dict.fromkeys(categorical, KIND_CATEGORICAL), target: KIND_TARGET}
    columns = tuple(ColumnSpec(name, kinds.get(name, KIND_CONTINUOUS)) for name in order)
    return FeatureSchema(columns, classes)


def student_performance_schema() -> FeatureSchema:
    return _schema(_A_ORDER, _A_CATEGORICAL, "G3", ("fail", "pass"))


def academic_outcome_schema() -> FeatureSchema:
    return _schema(_B_ORDER, _B_CATEGORICAL, "Target", ("Dropout", "Enrolled", "Graduate"))


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to load one dataset: key, file, schema, binarization.

    With a ``pass_threshold`` the target column holds integer grades, which
    become 'pass' at the threshold or above, else 'fail'.
    """

    key: str
    path: Path
    schema: FeatureSchema
    pass_threshold: int | None = None


DATASET_KEYS = ("A", "B")
DATA_FILES = {"A": "student-mat.csv", "B": "student-dropout.csv"}
EXPECTED_ROWS = {"A": 395, "B": 4424}


def builtin_dataset(key: str, data_dir: str | Path) -> DatasetSpec:
    if key == "A":
        return DatasetSpec(
            key="A",
            path=Path(data_dir) / DATA_FILES["A"],
            schema=student_performance_schema(),
            pass_threshold=GRADE_PASS_THRESHOLD,
        )
    if key == "B":
        return DatasetSpec(
            key="B",
            path=Path(data_dir) / DATA_FILES["B"],
            schema=academic_outcome_schema(),
        )
    raise InvalidConfigError(f"unknown dataset key {key!r}; expected one of {DATASET_KEYS}")


def load_dataset(spec: DatasetSpec) -> EncodedDataset:
    """The spec's file, encoded, with a graded target binarized to pass/fail."""
    return read_encoded(spec.path, spec.schema, spec.pass_threshold)
