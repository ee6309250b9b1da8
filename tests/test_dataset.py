"""Loading, encoding, splitting and partitioning, with hand-computed oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fedtab.dataset
import fedtab.schemas
from _oracles import csv_binarize, csv_read_table, per_cell_encode, round_robin_partition
from _synth import (
    grades_dataset_spec,
    write_dataset_a_like,
    write_dataset_b_like,
    write_grades_csv,
)
from fedtab.dataset import (
    ColumnSpec,
    EncodedDataset,
    FeatureSchema,
    build_client_partitions,
    check_client_split,
    partition_clients,
    read_encoded,
    standardize,
    stratified_split_indices,
)
from fedtab.errors import (
    DataError,
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
)
from fedtab.schemas import (
    DATA_FILES,
    academic_outcome_schema,
    builtin_dataset,
    load_dataset,
    student_performance_schema,
)


def tiny_schema() -> FeatureSchema:
    return FeatureSchema(
        (
            ColumnSpec("x", "continuous"),
            ColumnSpec("color", "categorical"),
            ColumnSpec("label", "target"),
        ),
        ("no", "yes"),
    )


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def write_rows(path, header, rows):
    """A ';'-delimited file of ``rows`` under ``header``."""
    lines = [";".join(header), *(";".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_rows(tmp_path, schema, rows, pass_threshold=None):
    """The one reader's table of ``rows``, cells in schema column order."""
    path = write_rows(tmp_path / "rows.csv", schema.column_names, rows)
    return read_encoded(path, schema, pass_threshold)


def test_load_reorders_columns_to_schema(tmp_path):
    path = write(tmp_path, "color;label;x\nred;yes;1.5\nblue;no;2.5\n")
    data = read_encoded(path, tiny_schema())
    assert data.feature_names == ("x", "color=blue", "color=red")
    assert data.features.tolist() == [[1.5, 0.0, 1.0], [2.5, 1.0, 0.0]]
    assert data.labels.tolist() == [1, 0]


def test_load_strips_quotes_and_whitespace(tmp_path):
    path = write(tmp_path, 'x; color ;label\n"1.5" ; "red";yes\n')
    data = read_encoded(path, tiny_schema())
    assert data.feature_names == ("x", "color=red")
    assert data.features.tolist() == [[1.5, 1.0]]


def test_load_header_mismatch(tmp_path):
    path = write(tmp_path, "x;colour;label\n1;red;yes\n")
    with pytest.raises(HeaderMismatchError) as err:
        read_encoded(path, tiny_schema())
    assert "color" in str(err.value) and "colour" in str(err.value)


def test_load_duplicate_header(tmp_path):
    path = write(tmp_path, "x;x;label\n1;2;yes\n")
    with pytest.raises(HeaderMismatchError):
        read_encoded(path, tiny_schema())


def test_load_ragged_row_reports_line(tmp_path):
    path = write(tmp_path, "x;color;label\n1;red;yes\n2;blue\n")
    with pytest.raises(RaggedRowError) as err:
        read_encoded(path, tiny_schema())
    assert "line 3" in str(err.value)


def test_load_empty_variants(tmp_path):
    with pytest.raises(EmptyTableError, match="file is empty"):
        read_encoded(write(tmp_path, "", "a.csv"), tiny_schema())
    with pytest.raises(EmptyTableError, match="no data rows"):
        read_encoded(write(tmp_path, "x;color;label\n", "b.csv"), tiny_schema())
    with pytest.raises(FileNotFoundError):
        read_encoded(tmp_path / "missing.csv", tiny_schema())


def grade_schema() -> FeatureSchema:
    return FeatureSchema(
        (ColumnSpec("g", "target"), ColumnSpec("x", "categorical")), ("fail", "pass")
    )


def test_binarize_threshold_boundary(tmp_path):
    rows = [("9", "a"), ("10", "b"), ("0", "c"), ("20", "d")]
    data = read_rows(tmp_path, grade_schema(), rows, pass_threshold=10)
    assert data.labels.tolist() == [0, 1, 0, 1]  # fail, pass, fail, pass
    # the other column and the row order are untouched
    assert data.feature_names == ("x=a", "x=b", "x=c", "x=d")
    assert np.array_equal(data.features, np.eye(4))


def test_binarize_errors(tmp_path):
    with pytest.raises(NonIntegerGradeError, match="row 1: grade '9.5' is not an integer"):
        read_rows(tmp_path, grade_schema(), [("9.5", "a")], pass_threshold=10)


def test_fit_stats_population_std_hand_value(tmp_path):
    schema = tiny_schema()
    rows = [("1", "r", "no"), ("2", "r", "yes"), ("3", "b", "no"), ("4", "b", "yes"),
            ("100", "g", "no")]
    (data,) = standardize(read_rows(tmp_path, schema, rows), schema, [0, 1, 2, 3], [range(5)])
    # mean 2.5 and population std sqrt(1.25) over rows 0-3; row 4 is not a
    # fit row, so its value must leave the statistics alone
    scale = math.sqrt(1.25)
    expected = [(v - 2.5) / scale for v in (1.0, 2.0, 3.0, 4.0, 100.0)]
    assert data.features[:, 0] == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_encode_zscore_onehot_and_target(tmp_path):
    schema = tiny_schema()
    rows = [("1", "r", "no"), ("3", "b", "yes"), ("2", "g", "no")]
    unscaled = read_rows(tmp_path, schema, rows)
    # the levels come from the whole table, sorted
    assert unscaled.feature_names == ("x", "color=b", "color=g", "color=r")
    assert unscaled.features[:, 0].tolist() == [1.0, 3.0, 2.0]
    (data,) = standardize(unscaled, schema, [0, 1], [[0, 1, 2]])
    # mean 2, std 1 over fit rows
    assert data.features[:, 0] == pytest.approx([-1.0, 1.0, 0.0], abs=1e-15)
    assert data.features[:, 1:].tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert data.labels.tolist() == [0, 1, 0]


def test_encode_constant_column_maps_to_zero(tmp_path):
    schema = FeatureSchema(
        (ColumnSpec("x", "continuous"), ColumnSpec("label", "target")), ("no", "yes")
    )
    data = read_rows(tmp_path, schema, [("7", "no"), ("7", "yes"), ("7", "no")])
    (data,) = standardize(data, schema, [0, 1, 2], [[0, 1, 2]])
    assert np.all(data.features[:, 0] == 0.0)
    assert not np.any(np.signbit(data.features[:, 0]))


def test_encode_errors(tmp_path):
    schema = tiny_schema()
    with pytest.raises(NonNumericCellError, match="column 'x', row 2: 'one' is not numeric"):
        read_rows(tmp_path, schema, [("2", "r", "no"), ("one", "r", "yes")])
    with pytest.raises(NonNumericCellError, match="non-finite"):
        read_rows(tmp_path, schema, [("nan", "r", "no")])
    with pytest.raises(UnknownTargetClassError):
        read_rows(tmp_path, schema, [("1", "r", "maybe")])
    good = read_rows(tmp_path, schema, [("1", "r", "no")])
    with pytest.raises(EmptyFitSetError):
        standardize(good, schema, [], [[0]])
    for rows in ([1], [-1]):  # no silent wrap of negative rows
        with pytest.raises(IndexError):
            standardize(good, schema, rows, [[0]])
        with pytest.raises(IndexError):
            standardize(good, schema, [0], [rows])
    # a continuous column named like a one-hot slot of a categorical column
    # would make standardize z-score that slot
    clash = FeatureSchema(
        (ColumnSpec("c=v", "continuous"), ColumnSpec("c", "categorical"),
         ColumnSpec("label", "target")),
        ("no", "yes"),
    )
    with pytest.raises(ShapeMismatchError, match="unique"):
        read_rows(tmp_path, clash, [("1", "v", "no"), ("5", "w", "yes")])


def test_stats_depend_only_on_fit_rows(tmp_path):
    schema = tiny_schema()
    base = [("1", "r", "no"), ("2", "r", "yes"), ("3", "b", "no")]
    a = read_rows(tmp_path, schema, base + [("50", "g", "yes")])
    b = read_rows(tmp_path, schema, base + [("-9", "k", "yes")])
    (a,) = standardize(a, schema, [0, 1, 2], [[0, 1, 2]])
    (b,) = standardize(b, schema, [0, 1, 2], [[0, 1, 2]])
    assert np.array_equal(a.features, b.features)


def _labeled_dataset(labels):
    y = np.asarray(labels, dtype=np.int64)
    x = np.arange(y.shape[0], dtype=np.float64)[:, None]
    return EncodedDataset(x, y, int(y.max()) + 1, ("x",))


def test_stratified_split_worked_example():
    # classes of sizes 6 and 4 at fraction 0.2: floors (1, 0), overall target
    # round(2.0) = 2, largest remainder (0.8 for the class of 4) takes the top-up
    labels = np.array([0] * 6 + [1] * 4)
    train_idx, test_idx = stratified_split_indices(labels, 0.2, seed=3)
    assert test_idx.size == 2
    assert np.bincount(labels[test_idx]).tolist() == [1, 1]
    assert np.bincount(labels[train_idx]).tolist() == [5, 3]


def test_stratified_split_partition_properties():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(20, 200))
        labels = rng.integers(0, 3, n)
        if len(np.unique(labels)) < 3:
            continue
        frac = float(rng.uniform(0.1, 0.4))
        train_idx, test_idx = stratified_split_indices(labels, frac, seed=trial)
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert np.union1d(train_idx, test_idx).size == n
        assert test_idx.size == math.floor(frac * n + 0.5)
        # per-class test share is the floor or the floor plus one
        for c in range(3):
            size = int(np.sum(labels == c))
            got = int(np.sum(labels[test_idx] == c))
            assert math.floor(frac * size) <= got <= math.floor(frac * size) + 1
        again = stratified_split_indices(labels, frac, seed=trial)
        assert np.array_equal(train_idx, again[0]) and np.array_equal(test_idx, again[1])


def test_stratified_split_rejects_degenerate_cases():
    labels = np.array([0, 1])
    with pytest.raises(InvalidFractionError):
        stratified_split_indices(labels, 0.0, seed=0)
    with pytest.raises(InvalidFractionError):
        stratified_split_indices(labels, 1.0, seed=0)
    with pytest.raises(StratificationImpossibleError):
        stratified_split_indices(labels, 0.9, seed=0)  # round(1.8) = 2 empties the train side


def test_partition_clients_balance():
    labels = np.concatenate([np.zeros(40, int), np.ones(35, int), np.full(25, 2)])
    data = _labeled_dataset(labels)
    parts = partition_clients(data, 3, seed=5)
    sizes = sorted(p.shape[0] for p in parts)
    assert sum(sizes) == 100
    assert sizes[-1] - sizes[0] <= 1
    all_rows = np.sort(np.concatenate(parts))
    assert np.array_equal(all_rows, np.arange(100))
    for c, total in ((0, 40), (1, 35), (2, 25)):
        per_client = [int(np.sum(labels[p] == c)) for p in parts]
        assert max(per_client) - min(per_client) <= 1
        assert sum(per_client) == total
    # deterministic and sorted
    again = partition_clients(data, 3, seed=5)
    for a, b in zip(parts, again):
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))


@pytest.mark.parametrize("n_clients", [1, 2, 3, 5, 7])
def test_partition_clients_matches_round_robin_oracle(n_clients):
    for seed in range(20):
        labels = np.random.default_rng(100 + seed).integers(0, 3, size=40 + seed)
        got = partition_clients(_labeled_dataset(labels), n_clients, seed)
        want = round_robin_partition(labels, n_clients, seed)
        assert len(got) == n_clients
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_partition_clients_errors():
    data = _labeled_dataset([0, 1, 0])
    with pytest.raises(TooManyClientsError):
        partition_clients(data, 4, seed=0)
    with pytest.raises(InvalidConfigError):
        partition_clients(data, 0, seed=0)


@pytest.mark.parametrize("test_fraction", [0.2, 0.5, 0.9])
def test_client_split_check_matches_the_dealt_clients(test_fraction):
    # the check sizes clients without dealing; the deal must agree for every size
    for n_rows in range(2, 41):
        data = _labeled_dataset(np.arange(n_rows) % 2)
        for n_clients in range(1, n_rows + 1):
            sizes = [rows.shape[0] for rows in partition_clients(data, n_clients, seed=n_rows)]
            bad = [k for k, n in enumerate(sizes) if math.floor(test_fraction * n + 0.5) in (0, n)]
            if not bad:
                check_client_split(n_rows, n_clients, test_fraction)
                continue
            with pytest.raises(TooManyClientsError) as caught:
                check_client_split(n_rows, n_clients, test_fraction)
            assert str(caught.value).startswith(
                f"client {bad[0]} of n_clients {n_clients} gets {sizes[bad[0]]} rows"
            )


@pytest.fixture(scope="module")
def grades_raw(tmp_path_factory):
    """The grades table's cells, read by the csv reference reader, and its spec."""
    path = write_grades_csv(tmp_path_factory.mktemp("ds") / "grades.csv", n=240, seed=3)
    spec = grades_dataset_spec(path)
    return csv_binarize(csv_read_table(path, spec.schema), "grade", spec.pass_threshold), spec


def test_build_partitions_shapes_and_provenance(grades_raw):
    raw, spec = grades_raw
    parts, _ = build_client_partitions(load_dataset(spec), spec.schema, 3, 0.2, seed=9)
    assert len(parts) == 3
    widths = {p.train.n_features for p in parts} | {p.test.n_features for p in parts}
    assert len(widths) == 1, "every client must encode to the same width"
    covered = np.sort(np.concatenate([np.concatenate([p.train_rows, p.test_rows]) for p in parts]))
    assert np.array_equal(covered, np.arange(len(raw.rows)))
    for p in parts:
        assert p.train.n_samples + p.test.n_samples in (80, 81)  # 240 / 3 clients
        assert np.intersect1d(p.train_rows, p.test_rows).size == 0


def test_build_partitions_width_matches_hand_count(grades_raw):
    raw, spec = grades_raw
    parts, _ = build_client_partitions(load_dataset(spec), spec.schema, 3, 0.2, seed=9)
    # independent width count: distinct levels per categorical column plus
    # one slot per continuous column
    support_levels = len(set(raw.column("support")))
    campus_levels = len(set(raw.column("campus")))
    assert parts[0].train.n_features == 3 + support_levels + campus_levels


def test_client_too_small_to_split_is_a_config_error(grades_raw):
    raw, spec = grades_raw
    data = load_dataset(spec)
    # 240 rows over 120 clients: 2 rows each, and round(0.2 * 2) = 0 test rows
    with pytest.raises(TooManyClientsError) as caught:
        build_client_partitions(data, spec.schema, 120, 0.2, seed=9)
    message = str(caught.value)
    for part in ("client 0 ", "n_clients 120", "2 rows", "test_fraction 0.2"):
        assert part in message
    with pytest.raises(TooManyClientsError):  # 3 rows each, round(0.9 * 3) = 3: no train row
        build_client_partitions(data, spec.schema, 80, 0.9, seed=9)
    clients, pooled = build_client_partitions(data, spec.schema, 80, 0.2, seed=9)
    assert sum(p.test.n_samples for p in clients) == 80  # one test row per 3-row client
    assert pooled.test.n_samples == 80
    lacking = EncodedDataset(data.features, np.zeros_like(data.labels), data.n_classes,
                             data.feature_names)
    with pytest.raises(StratificationImpossibleError) as caught:  # a data error, exit 2
        build_client_partitions(lacking, spec.schema, 120, 0.2, seed=9)
    assert isinstance(caught.value, DataError)


def _zscores_from_cells(raw, name, fit_rows, rows):
    """Z-scores of one continuous column, computed straight from the raw cells."""
    j = raw.column_index(name)
    fitted = np.array([float(raw.rows[i][j]) for i in np.sort(fit_rows)])
    values = np.array([float(raw.rows[i][j]) for i in rows])
    mean, scale = np.mean(fitted), np.std(fitted)
    return np.zeros_like(values) if scale == 0.0 else (values - mean) / scale


def test_pooled_scope_shares_statistics(grades_raw):
    raw, spec = grades_raw
    _, pooled = build_client_partitions(load_dataset(spec), spec.schema, 3, 0.2, seed=9)
    names = pooled.train.feature_names
    for rows, data in ((pooled.train_rows, pooled.train), (pooled.test_rows, pooled.test)):
        for col in spec.schema.feature_columns("continuous"):
            expected = _zscores_from_cells(raw, col.name, pooled.train_rows, rows)
            assert np.array_equal(data.features[:, names.index(col.name)], expected)
        for col in spec.schema.feature_columns("categorical"):
            cells = np.array(raw.column(col.name))[rows]
            for level in sorted(set(raw.column(col.name))):
                got = data.features[:, names.index(f"{col.name}={level}")]
                assert np.array_equal(got, (cells == level).astype(np.float64))


def test_client_scope_statistics_differ(grades_raw):
    raw, spec = grades_raw
    parts, _ = build_client_partitions(load_dataset(spec), spec.schema, 3, 0.2, seed=9)
    j = parts[0].train.feature_names.index("prev_score")
    for p in parts:
        for rows, data in ((p.train_rows, p.train), (p.test_rows, p.test)):
            expected = _zscores_from_cells(raw, "prev_score", p.train_rows, rows)
            assert np.array_equal(data.features[:, j], expected)
    col = raw.column_index("prev_score")
    own = np.mean([float(raw.rows[i][col]) for i in parts[0].train_rows])
    other = np.mean([float(raw.rows[i][col]) for i in parts[1].train_rows])
    assert own != other


def test_build_partitions_encodes_once(grades_raw, monkeypatch):
    """One read serves every build: partition builds never re-encode."""
    raw, spec = grades_raw
    calls = []
    real_assemble = fedtab.dataset._assemble

    def counting_assemble(*args, **kwargs):
        calls.append(1)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(fedtab.dataset, "_assemble", counting_assemble)
    data = load_dataset(spec)
    for seed in (9, 10):
        build_client_partitions(data, spec.schema, 3, 0.2, seed=seed)
    assert len(calls) == 1


def test_encoded_table_is_read_only(grades_raw):
    raw, spec = grades_raw
    data = load_dataset(spec)
    with pytest.raises(ValueError):
        data.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        data.labels[0] = 0


def test_encode_reports_first_bad_cell_by_table_row(grades_raw, tmp_path):
    raw, spec = grades_raw
    continuous = [c.name for c in spec.schema.feature_columns("continuous")]
    rows = [list(r) for r in raw.rows]
    rows[200][raw.column_index(continuous[0])] = "n/a"  # first column in schema order wins
    rows[5][raw.column_index(continuous[1])] = "inf"
    rows[3][raw.column_index(spec.schema.target_column)] = "maybe"
    path = write_rows(tmp_path / "broken.csv", raw.header, rows)
    with pytest.raises(NonNumericCellError) as err:
        read_encoded(path, spec.schema)
    assert str(err.value) == f"column {continuous[0]!r}, row 201: 'n/a' is not numeric"


def test_encode_reports_first_bad_cell_of_a_column_in_row_order(tmp_path):
    schema = tiny_schema()
    # a non-finite cell above a non-numeric one is the one reported
    rows = [("1", "r", "no"), ("-inf", "r", "yes"), ("one", "b", "no")]
    with pytest.raises(NonNumericCellError) as err:
        read_rows(tmp_path, schema, rows)
    assert str(err.value) == "column 'x', row 2: non-finite value '-inf'"
    rows = [("1", "r", "no"), ("two", "r", "yes"), ("nan", "b", "no")]
    with pytest.raises(NonNumericCellError) as err:
        read_rows(tmp_path, schema, rows)
    assert str(err.value) == "column 'x', row 2: 'two' is not numeric"
    rows = [("1", "r", "no"), ("2", "r", "maybe"), ("3", "b", "never")]
    with pytest.raises(UnknownTargetClassError) as err:
        read_rows(tmp_path, schema, rows)
    assert str(err.value) == "row 2: target 'maybe' not in ['no', 'yes']"


@pytest.mark.parametrize("table", ["grades", "A", "B"])
def test_encode_matches_per_cell_oracle(table, grades_raw, tmp_path):
    if table == "grades":
        raw, spec = grades_raw
        got, schema = load_dataset(spec), spec.schema
    else:
        write = write_dataset_a_like if table == "A" else write_dataset_b_like
        spec = builtin_dataset(table, str(tmp_path))
        write(tmp_path / DATA_FILES[table], n=500, seed=2)
        raw = csv_read_table(spec.path, spec.schema)
        if spec.pass_threshold is not None:
            raw = csv_binarize(raw, spec.schema.target_column, spec.pass_threshold)
        got, schema = load_dataset(spec), spec.schema
    columns = [(c.name, c.kind) for c in schema.columns]
    features, labels, names = per_cell_encode(raw.rows, columns, schema.target_classes)
    assert got.feature_names == tuple(names)
    assert got.features.tobytes() == features.tobytes()
    assert got.labels.tobytes() == labels.tobytes()


def test_pipeline_is_leakage_free(grades_raw, tmp_path):
    """Perturbing a test row must not move any training feature."""
    raw, spec = grades_raw
    parts, _ = build_client_partitions(load_dataset(spec), spec.schema, 3, 0.2, seed=4)
    victim = int(parts[1].test_rows[0])
    rows = [list(r) for r in raw.rows]
    rows[victim][raw.column_index("prev_score")] = "99.875"
    path = write_rows(tmp_path / "perturbed.csv", raw.header, rows)
    parts2, _ = build_client_partitions(  # the raw grades are already binarized
        read_encoded(path, spec.schema), spec.schema, 3, 0.2, seed=4
    )
    for p, q in zip(parts, parts2):
        assert np.array_equal(p.train_rows, q.train_rows)
        assert np.array_equal(p.train.features, q.train.features)
        assert np.array_equal(p.train.labels, q.train.labels)


A_CONTINUOUS = {
    "age", "Medu", "Fedu", "traveltime", "studytime", "failures", "famrel",
    "freetime", "goout", "Dalc", "Walc", "health", "absences", "G1", "G2",
}


def _expected_schema(order, continuous, categorical, target, classes):
    kinds = []
    for name in order:  # every column named exactly once
        assert [name in continuous, name in categorical, name == target].count(True) == 1, name
        kinds.append("continuous" if name in continuous else
                     "categorical" if name in categorical else "target")
    return FeatureSchema(tuple(map(ColumnSpec, order, kinds)), classes)


def test_builtin_schemas_keep_their_columns():
    a_order, b_order = fedtab.schemas._A_ORDER, fedtab.schemas._B_ORDER
    a_categorical = set(a_order) - A_CONTINUOUS - {"G3"}
    assert len(a_order) == 33 and len(a_categorical) == 17
    assert student_performance_schema() == _expected_schema(
        a_order, A_CONTINUOUS, a_categorical, "G3", ("fail", "pass")
    )
    assert len(b_order) == 37 and b_order[-1] == "Target"
    b_continuous = set(b_order) - {"Marital status", "Target"}
    assert academic_outcome_schema() == _expected_schema(
        b_order, b_continuous, {"Marital status"}, "Target", ("Dropout", "Enrolled", "Graduate")
    )
