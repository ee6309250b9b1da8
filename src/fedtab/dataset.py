"""Tabular data handling: loading, encoding, splitting, client partitioning.

A FeatureSchema declares the column set once; every table is reordered to
schema order at load time, so downstream code never depends on file column
order.  One reader, ``read_encoded``, turns a file into unscaled features
in one ``np.loadtxt`` pass that reads quotes as the csv module does; a
file it cannot read goes to ``_raise_fault``, which walks it with the csv
module to name the first fault.  Categorical levels are dataset-level
metadata, taken from the whole table, so encoded width is identical across
all participants.  ``standardize`` then z-scores the continuous columns
with statistics from the fit rows a caller names (training rows), which
keeps the encoding strictly leakage-free.
``build_client_partitions`` deals rows to clients by class
(``partition_clients``), splits each client once
(``stratified_split_indices``) and standardizes that one split both ways:
per client for the federated setting, pooled for the centralized one.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

import numpy as np

from .errors import (
    EmptyFitSetError,
    EmptyTableError,
    HeaderMismatchError,
    InvalidConfigError,
    InvalidFractionError,
    NonIntegerGradeError,
    NonNumericCellError,
    RaggedRowError,
    ShapeMismatchError,
    StratificationImpossibleError,
    TooManyClientsError,
    UnknownTargetClassError,
    UnreadableFileError,
)

KIND_CONTINUOUS = "continuous"
KIND_CATEGORICAL = "categorical"
KIND_TARGET = "target"
_KINDS = (KIND_CONTINUOUS, KIND_CATEGORICAL, KIND_TARGET)
_DELIMITER = ";"  # both benchmark tables

# every random stream the grid draws, by role; see derive_seed
SEED_ROLES = ("deal", "split", "attack", "flip", "train")


def derive_seed(role: str, *parts: int) -> int:
    """The seed of one random stream: the only code that combines seeds.

    Each role names one stream, its parts and its consumer:

    - ``"deal"``, (master seed): ``partition_clients``'s class shuffles;
    - ``"split"``, (master seed, client): that client's test-row picks in
      ``stratified_split_indices``;
    - ``"attack"``, (attack seed, master seed): the base that each
      ``"flip"`` seed derives from, in ``run_condition_detailed``;
    - ``"flip"``, (attack base, client): that client's ``flip_labels``;
    - ``"train"``, (master seed, client): that client's ``TrainConfig``
      seed, so its SVM epoch order and, through ``(seed, tree)`` tuples,
      its forest bootstraps and feature draws.

    The value is the XOR of ``parts``; the role does not yet enter it.  So
    streams collide: the deal, client 0's split, client 0's training (the
    central cells' too) and, at attack seed 0, client 0's flips all draw
    from ``default_rng(master seed)``; client k's split and training share
    one seed; and (seed, k) gives what (seed XOR k, 0) gives, so master
    seeds reuse each other's client streams.  Making the streams
    independent changes every result, so it waits for a re-baseline.
    An unknown ``role`` raises ``ValueError``.
    """
    if role not in SEED_ROLES:
        raise ValueError(f"unknown seed role {role!r}; expected one of {SEED_ROLES}")
    value = 0
    for part in parts:
        value ^= part
    return value


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidConfigError("column name must be non-empty")
        if self.kind not in _KINDS:
            raise InvalidConfigError(f"unknown column kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Column declarations plus the ordered list of target class values.

    A categorical column's levels are the sorted distinct values of the
    whole table being encoded: public dataset metadata, like the schema
    itself, so every participant of one table encodes to the same width.
    """

    columns: tuple[ColumnSpec, ...]
    target_classes: tuple[str, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InvalidConfigError("duplicate column names in schema")
        targets = [c for c in self.columns if c.kind == KIND_TARGET]
        if len(targets) != 1:
            raise InvalidConfigError(f"schema needs exactly one target column, got {len(targets)}")
        if len(self.target_classes) < 2:
            raise InvalidConfigError("need at least two target classes")
        if len(set(self.target_classes)) != len(self.target_classes):
            raise InvalidConfigError("duplicate target class values")

    @property
    def target_column(self) -> str:
        return next(c.name for c in self.columns if c.kind == KIND_TARGET)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def feature_columns(self, kind: str | None = None) -> tuple[ColumnSpec, ...]:
        picked = [c for c in self.columns if c.kind != KIND_TARGET]
        if kind is not None:
            picked = [c for c in picked if c.kind == kind]
        return tuple(picked)


def _clean_cell(cell: str) -> str:
    cell = cell.strip()
    if len(cell) >= 2 and cell[0] == '"' and cell[-1] == '"':
        cell = cell[1:-1].strip()
    return cell


def _checked_header(
    path: str | Path, raw_header: Sequence[str], schema: FeatureSchema
) -> tuple[str, ...]:
    """The cleaned header in file order; it must name each schema column exactly once."""
    header = tuple(_clean_cell(c) for c in raw_header)
    if len(set(header)) != len(header):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise HeaderMismatchError(f"{path}: duplicate header columns {dupes}")
    expected = set(schema.column_names)
    missing = sorted(expected - set(header))
    extra = sorted(set(header) - expected)
    if missing or extra:
        raise HeaderMismatchError(f"{path}: missing columns {missing}, unexpected columns {extra}")
    return header


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """Dense features plus integer labels, ready for training."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ShapeMismatchError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ShapeMismatchError("labels must be a vector matching the feature rows")
        if self.features.shape[1] != len(self.feature_names):
            raise ShapeMismatchError("feature_names must match feature width")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ShapeMismatchError("feature_names must be unique")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("encoded features must be finite")
        if self.n_classes < 2:
            raise InvalidConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels outside [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


def concat_datasets(parts: Sequence[EncodedDataset]) -> EncodedDataset:
    """Stack datasets row-wise; all parts must agree on width and classes."""
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    for p in parts[1:]:
        if p.n_features != first.n_features or p.n_classes != first.n_classes:
            raise ShapeMismatchError("datasets disagree on feature width or class count")
        if p.feature_names != first.feature_names:
            raise ShapeMismatchError("datasets disagree on feature names")
    return EncodedDataset(
        np.concatenate([p.features for p in parts], axis=0),
        np.concatenate([p.labels for p in parts], axis=0),
        first.n_classes,
        first.feature_names,
    )


def _codes(cells: Sequence[str], levels: Sequence[str]) -> np.ndarray:
    """Each cell's index in ``levels``, -1 where it is not one of them."""
    position = {v: k for k, v in enumerate(levels)}
    return np.fromiter(
        map(position.get, cells, repeat(-1)), dtype=np.int64, count=len(cells)
    )


def _assemble(
    schema: FeatureSchema,
    floats: Mapping[str, np.ndarray],
    strings: Mapping[str, Sequence[str]],
    labels: np.ndarray,
) -> EncodedDataset:
    """``read_encoded``'s result from parsed continuous columns and clean categorical cells."""
    blocks: list[np.ndarray] = []
    names: list[str] = []
    for col in schema.feature_columns():
        if col.kind == KIND_CONTINUOUS:
            blocks.append(floats[col.name][:, None])
            names.append(col.name)
        else:
            cells = strings[col.name]
            levels = tuple(sorted(set(cells)))
            onehot = np.zeros((len(cells), len(levels)), dtype=np.float64)
            onehot[np.arange(len(cells)), _codes(cells, levels)] = 1.0
            blocks.append(onehot)
            names.extend(f"{col.name}={v}" for v in levels)

    n = labels.shape[0]
    features = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
    features.flags.writeable = labels.flags.writeable = False
    return EncodedDataset(features, labels, len(schema.target_classes), tuple(names))


def _pass_fail(grade: str, pass_threshold: int) -> str:
    return "pass" if int(grade) >= pass_threshold else "fail"


def read_encoded(
    path: str | Path, schema: FeatureSchema, pass_threshold: int | None = None
) -> EncodedDataset:
    """The file at ``path`` as unscaled features and target indices.

    The header must name each schema column exactly once, in any order and
    with any surrounding whitespace or quotes.  The body is one
    ``np.loadtxt`` pass, with ``"`` quoting as the csv module reads it.
    Every cell is stripped of surrounding whitespace and then of one pair
    of surrounding quotes.  Continuous columns are parsed as ``float()``
    parses them and must be finite, categorical columns are one-hot over
    the column's sorted distinct values, and the target becomes its index
    in ``schema.target_classes``.  With ``pass_threshold`` the target holds
    integer grades, and a grade passes when it is at least the threshold.
    Blank lines are skipped and a leading UTF-8 byte order mark is dropped.
    Features and labels are read-only, so one table can serve every
    experiment built on it.

    A missing file raises ``FileNotFoundError``, and a path that cannot be
    read as a file (a directory, a path through a regular file, no
    permission) raises ``UnreadableFileError``.  A file this pass cannot
    read goes to ``_raise_fault``, which names its first fault.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
        lines = text.split("\n")
        limit = csv.field_size_limit()
        # Nonempty ASCII text with no quote, underscore or lone carriage return
        # holds one record per line, no field longer than its line, and numbers
        # that numpy parses as float() does: numpy reads its lines, numbers
        # into float64 fields.  Other text goes to numpy whole, numbers as text.
        typed = (
            text != "" and text.isascii() and '"' not in text and "_" not in text
            and text.count("\r") == text.count("\r\n") and max(map(len, lines)) <= limit
        )
        source = iter(lines) if typed else io.StringIO(text, newline="")
        header = _checked_header(path, next(csv.reader(source, delimiter=_DELIMITER)), schema)
        continuous = {c.name for c in schema.feature_columns(KIND_CONTINUOUS)}
        dtype = [(name, np.float64 if typed and name in continuous else object) for name in header]
        with warnings.catch_warnings():  # a table without rows is a fault, found below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                source, dtype=dtype, delimiter=_DELIMITER, quotechar='"', comments=None,
                ndmin=1,
            )
        if not table.size:
            raise ValueError("no data rows")
        floats: dict[str, np.ndarray] = {}
        strings: dict[str, list[str]] = {}
        for name in header:
            if table.dtype[name] != object:
                floats[name] = table[name]
                continue
            cells = table[name].tolist()
            clean = {cell: _clean_cell(cell) for cell in set(cells)}
            if max(map(len, clean)) > limit:
                raise ValueError("a field over the csv field limit")
            if name in continuous:
                clean = {cell: float(value) for cell, value in clean.items()}
                floats[name] = np.fromiter(map(clean.__getitem__, cells), np.float64, len(cells))
                continue
            if name == schema.target_column and pass_threshold is not None:
                clean = {cell: _pass_fail(value, pass_threshold) for cell, value in clean.items()}
            strings[name] = list(map(clean.__getitem__, cells))
        labels = _codes(strings[schema.target_column], schema.target_classes)
        if (labels < 0).any() or not all(np.isfinite(v).all() for v in floats.values()):
            raise ValueError("an unknown target or a non-finite number")
    except FileNotFoundError:
        raise
    except OSError as err:
        raise UnreadableFileError(f"{path}: cannot read: {err.strerror}") from None
    except (csv.Error, StopIteration, ValueError):  # a decode error is a ValueError too
        _raise_fault(path, schema, pass_threshold)
    return _assemble(schema, floats, strings, labels)


def _raise_fault(path: str | Path, schema: FeatureSchema, pass_threshold: int | None) -> NoReturn:
    """Raise the first fault of a file that ``read_encoded`` cannot read.

    The file is walked with the csv module, so each error carries its csv
    line number.  In order: text that is not UTF-8 or that the csv module
    cannot parse, an empty file, a row whose cell count differs from the
    header's, no data rows, then a non-integer grade, a continuous cell
    that is not a finite number (by column in schema order, then by row)
    and a target outside the declared classes, each named by its data row.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=_DELIMITER)
        try:
            raw_header = next(reader, None)
            if raw_header is None:
                raise EmptyTableError(f"{path}: file is empty")
            header = _checked_header(path, raw_header, schema)
            rows = []
            for cells in filter(None, reader):  # a blank line is no row
                if len(cells) != len(header):
                    raise RaggedRowError(
                        f"{path}: line {reader.line_num} has {len(cells)} cells, "
                        f"expected {len(header)}"
                    )
                rows.append(dict(zip(header, map(_clean_cell, cells))))
        except UnicodeDecodeError as err:
            raise UnreadableFileError(f"{path}: not UTF-8 text ({err.reason})") from None
        except csv.Error as err:
            raise UnreadableFileError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise EmptyTableError(f"{path}: no data rows")
    target = schema.target_column
    if pass_threshold is not None:
        for i, row in enumerate(rows, 1):
            try:
                row[target] = _pass_fail(row[target], pass_threshold)
            except ValueError:
                raise NonIntegerGradeError(
                    f"row {i}: grade {row[target]!r} is not an integer"
                ) from None
    for col in schema.feature_columns(KIND_CONTINUOUS):
        for i, row in enumerate(rows, 1):
            cell = row[col.name]
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCellError(
                    f"column {col.name!r}, row {i}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCellError(f"column {col.name!r}, row {i}: non-finite value {cell!r}")
    for i, row in enumerate(rows, 1):
        if row[target] not in schema.target_classes:
            raise UnknownTargetClassError(
                f"row {i}: target {row[target]!r} not in {list(schema.target_classes)}"
            )
    raise AssertionError("unreachable: read_encoded declined a file without a fault")


def standardize(
    data: EncodedDataset,
    schema: FeatureSchema,
    fit_rows: Sequence[int] | np.ndarray,
    row_sets: Sequence[Sequence[int] | np.ndarray],
) -> list[EncodedDataset]:
    """Pick rows of a ``read_encoded`` result and z-score its continuous columns.

    Each continuous column's mean and population standard deviation come
    from ``fit_rows`` only, in the order given.  The caller passes training
    rows; evaluation rows must never be among them, which is what keeps the
    encoding leakage-free.  Returns one dataset per entry of ``row_sets``:
    those rows, with zero-spread columns encoding to 0 and one-hot columns
    left as they are.
    """
    fit = np.asarray(fit_rows, dtype=np.int64)
    if fit.size == 0:
        raise EmptyFitSetError("cannot fit encoding statistics on zero rows")
    picks = [np.asarray(rows, dtype=np.int64) for rows in row_sets]
    for idx in (fit, *picks):
        outside = idx[(idx < 0) | (idx >= data.n_samples)]
        if outside.size:
            raise IndexError(f"row {outside[0]} outside [0, {data.n_samples})")

    blocks = [data.features[idx] for idx in picks]
    for col in schema.feature_columns(KIND_CONTINUOUS):
        j = data.feature_names.index(col.name)
        fitted = data.features[fit, j]
        mean, scale = np.mean(fitted), np.std(fitted)  # population form, divisor n
        for block in blocks:
            block[:, j] = 0.0 if scale == 0.0 else (block[:, j] - mean) / scale
    return [
        EncodedDataset(block, data.labels[idx], data.n_classes, data.feature_names)
        for block, idx in zip(blocks, picks)
    ]


def _split_target(n: int, fraction: float) -> int:
    return int(np.floor(fraction * n + 0.5))


def stratified_split_indices(
    labels: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick test rows per class; returns (train, test) index arrays, sorted.

    Each class contributes floor(test_fraction * class size) rows, then the
    classes with the largest fractional remainders are topped up one row each
    until the overall test size reaches round(test_fraction * n).  Within a
    class the chosen rows are uniform, driven by the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InvalidFractionError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    target_total = _split_target(n, test_fraction)
    if target_total == 0 or target_total == n:
        raise StratificationImpossibleError(
            f"test_fraction {test_fraction} leaves an empty side for {n} rows"
        )

    # with counts, np.unique skips its masked-array check, which imports numpy.ma
    classes, class_sizes = np.unique(y, return_counts=True)
    sizes = {c: int(size) for c, size in zip(classes, class_sizes)}
    takes = {c: int(np.floor(test_fraction * sizes[c])) for c in classes}
    shortfall = target_total - sum(takes.values())
    if shortfall > 0:
        # largest remainder first; ties broken by class index for determinism
        by_remainder = sorted(
            classes, key=lambda c: (-(test_fraction * sizes[c] - takes[c]), c)
        )
        for c in by_remainder[:shortfall]:
            takes[c] += 1

    rng = np.random.default_rng(seed)
    test_parts = []
    for c in classes:
        members = np.flatnonzero(y == c)
        picked = rng.permutation(members.shape[0])[: takes[c]]
        test_parts.append(members[picked])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    return np.flatnonzero(~mask), test_idx


def partition_clients(
    data: EncodedDataset, n_clients: int, seed: int
) -> list[np.ndarray]:
    """Deal rows to clients, stratified and near-even; returns sorted index arrays.

    Rows of each class are shuffled, the classes are chained in label order
    and the chain is dealt round-robin, so client sizes differ by at most
    one overall and per class.
    """
    if n_clients < 1:
        raise InvalidConfigError(f"n_clients must be at least 1, got {n_clients}")
    if n_clients > data.n_samples:
        raise TooManyClientsError(
            f"cannot split {data.n_samples} rows across {n_clients} clients"
        )
    rng = np.random.default_rng(seed)
    classes = np.unique(data.labels, return_counts=True)[0]  # skips np.unique's numpy.ma import
    order = np.concatenate([
        members[rng.permutation(members.shape[0])]
        for members in (np.flatnonzero(data.labels == c) for c in classes)
    ])
    return [np.sort(order[k::n_clients]) for k in range(n_clients)]


def check_client_split(n_rows: int, n_clients: int, test_fraction: float) -> None:
    """Raise ``TooManyClientsError`` when a dealt client cannot be split.

    ``partition_clients`` deals a chain of all ``n_rows`` rows round-robin,
    so clients before ``n_rows % n_clients`` get one row more than the rest
    whatever the seed, and a table's sizes are known before any deal.  The
    error names the first client, in client order, whose rows
    ``test_fraction`` cannot split into a non-empty train and a non-empty
    test side.  A fraction outside (0, 1) is left to
    ``stratified_split_indices``.
    """
    if not 0.0 < test_fraction < 1.0:
        return
    q, r = divmod(n_rows, n_clients)
    for k, n in ((0, q + (r > 0)), (r, q)):  # the first client of each size
        if _split_target(n, test_fraction) in (0, n):
            raise TooManyClientsError(
                f"client {k} of n_clients {n_clients} gets {n} rows: too few for "
                f"test_fraction {test_fraction} to leave both train and test rows"
            )


@dataclass(frozen=True, eq=False)
class ClientPartition:
    """One client's encoded train/test data plus row provenance."""

    client_id: int
    train: EncodedDataset
    test: EncodedDataset
    train_rows: np.ndarray
    test_rows: np.ndarray

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise InvalidConfigError("client_id must be non-negative")
        if set(self.train_rows.tolist()) & set(self.test_rows.tolist()):
            raise ValueError("train and test rows overlap")
        if self.train_rows.shape[0] != self.train.n_samples:
            raise ShapeMismatchError("train_rows must match train data")
        if self.test_rows.shape[0] != self.test.n_samples:
            raise ShapeMismatchError("test_rows must match test data")


def build_client_partitions(
    data: EncodedDataset,
    schema: FeatureSchema,
    n_clients: int,
    test_fraction: float,
    seed: int,
) -> tuple[list[ClientPartition], ClientPartition]:
    """Deal a ``read_encoded`` result to clients for one experiment context.

    The caller reads each table once and passes it to every build.  Steps:
    deal rows to clients, split each client's rows into train/test, then
    standardize that one split twice.  Returns ``(clients, pooled)``.
    ``clients`` holds one partition per client, each z-scored with
    statistics fitted on its own training rows (the federated setting, no
    raw sharing).  ``pooled`` is client 0 holding every client's train rows
    and then test rows, in client order, z-scored with statistics fitted on
    the sorted union of the training rows (the centralized setting), so the
    centralized and federated cells train on exactly the same rows.
    One-hot width is identical in both.

    Seeds: the deal draws from ``derive_seed("deal", seed)`` and client
    k's split from ``derive_seed("split", seed, k)``.  Every array of the
    result is read-only, like ``read_encoded``'s, so one build can serve
    every experiment on that split.

    A client whose rows ``test_fraction`` cannot split into a non-empty
    train and a non-empty test side raises ``TooManyClientsError``, a
    configuration error (``check_client_split``); a table lacking a class,
    and test rows of a single class, on which AUC is undefined, are data
    errors.
    """
    if np.any(data.class_counts() == 0):
        raise StratificationImpossibleError("a target class has no rows in the table")

    client_rows = partition_clients(data, n_clients, derive_seed("deal", seed))
    check_client_split(data.n_samples, n_clients, test_fraction)
    split_rows: list[tuple[np.ndarray, np.ndarray]] = []
    for k, rows in enumerate(client_rows):
        local_train, local_test = stratified_split_indices(
            data.labels[rows], test_fraction, derive_seed("split", seed, k)
        )
        split_rows.append((rows[local_train], rows[local_test]))
    pooled_rows = [np.concatenate(side) for side in zip(*split_rows)]
    test_counts = np.bincount(data.labels[pooled_rows[1]], minlength=data.n_classes)
    if np.count_nonzero(test_counts) < 2:
        raise StratificationImpossibleError(
            f"the test rows hold a single class (class counts {test_counts.tolist()}); "
            f"AUC is undefined"
        )

    def partition(k: int, train_rows: np.ndarray, test_rows: np.ndarray) -> ClientPartition:
        train, test = standardize(data, schema, np.sort(train_rows), (train_rows, test_rows))
        for array in (train.features, train.labels, test.features, test.labels,
                      train_rows, test_rows):
            array.flags.writeable = False
        return ClientPartition(k, train, test, train_rows, test_rows)

    clients = [partition(k, *rows) for k, rows in enumerate(split_rows)]
    return clients, partition(0, *pooled_rows)
