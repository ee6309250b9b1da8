"""The one-pass table reader against the csv path it must reproduce.

``load_encoded(spec)`` must return exactly what ``encode(load_dataset(spec),
spec.schema)`` returns (feature and label bytes, dtypes, names, read-only
flags) or raise the same exception class with the same message.  Every
input here is read both ways.  Each case also names what ``read_encoded``
itself must do with it: read it, defer it to the csv path (return None) or
raise a header error, so a reader that always defers cannot pass.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from _synth import write_dataset_a_like, write_dataset_b_like
from fedtab.dataset import ColumnSpec, FeatureSchema, encode, read_encoded
from fedtab.errors import UnreadableFileError
from fedtab.schemas import DatasetSpec, builtin_dataset, load_dataset, load_encoded

HEADER = "x;color;label\n"
GRADE_HEADER = "x;color;g\n"


def tiny_spec(path, delimiter=";", vocabularies=None) -> DatasetSpec:
    schema = FeatureSchema(
        (ColumnSpec("x", "continuous"), ColumnSpec("color", "categorical"),
         ColumnSpec("label", "target")),
        ("no", "yes"),
        delimiter=delimiter,
        vocabularies=vocabularies,
    )
    return DatasetSpec("tiny", path, schema)


def grade_spec(path) -> DatasetSpec:
    schema = FeatureSchema(
        (ColumnSpec("x", "continuous"), ColumnSpec("color", "categorical"),
         ColumnSpec("g", "target")),
        ("fail", "pass"),
    )
    return DatasetSpec("graded", path, schema, grade_column="g", pass_threshold=10)


def outcome(read):
    try:
        data = read()
    except Exception as err:  # the class and message are what is compared
        return ("raised", type(err), str(err))
    f, y = data.features, data.labels
    return (
        "ok", f.dtype, f.shape, f.tobytes(), f.flags.c_contiguous, f.flags.writeable,
        y.dtype, y.shape, y.tobytes(), y.flags.writeable, data.feature_names, data.n_classes,
    )


def fast_path(spec) -> str:
    try:
        data = read_encoded(spec.path, spec.schema, spec.grade_column, spec.pass_threshold)
    except Exception:
        return "raises"
    return "defers" if data is None else "reads"


def assert_same(spec, expected_path=None):
    csv_path = outcome(lambda: encode(load_dataset(spec), spec.schema))
    assert outcome(lambda: load_encoded(spec)) == csv_path
    if expected_path is not None:
        assert fast_path(spec) == expected_path
    return csv_path


TINY_CASES = {
    "plain": (HEADER + "1.5;red;yes\n2;blue;no\n", "reads"),
    "header reordered and padded": (" label ;x;\tcolor\nyes;1.5;red\nno;2;blue\n", "reads"),
    "quoted cells": (HEADER + '"1.5";"red";yes\n2;blue;no\n', "defers"),
    "quoted delimiter": (HEADER + '1.5;"r;ed";yes\n2;blue;no\n', "defers"),
    "quoted header": ('"x";color;label\n1.5;red;yes\n', "defers"),
    "stray quote": (HEADER + '1.5;re"d;yes\n', "defers"),
    "crlf": ("x;color;label\r\n1.5;red;yes\r\n2;blue;no\r\n", "reads"),
    "lone cr": ("x;color;label\r1.5;red;yes\r2;blue;no\r", "reads"),
    "mixed line ends": ("x;color;label\r\n1.5;red;yes\r2;blue;no\n3;red;no", "reads"),
    "blank lines": (HEADER + "\n1.5;red;yes\n\n\n2;blue;no\n\n", "reads"),
    "blank crlf lines": ("x;color;label\r\n\r\n1.5;red;yes\r\n\r\n", "reads"),
    "whitespace-only line": (HEADER + "1.5;red;yes\n   \n2;blue;no\n", "defers"),
    "tab-only line": (HEADER + "1.5;red;yes\n\t\n", "defers"),
    "short row": (HEADER + "1.5;red;yes\n2;blue\n", "defers"),
    "long row": (HEADER + "1.5;red;yes\n2;blue;no;7\n", "defers"),
    "every row long": (HEADER + "1.5;red;yes;1\n2;blue;no;2\n", "defers"),
    "trailing delimiter": (HEADER + "1.5;red;yes;\n", "defers"),
    "spaces and tabs": (HEADER + " 1.5 ;\tred ;yes\t\n2\t; blue;  no\n", "reads"),
    "no-break spaces": (HEADER + "\xa01.5\xa0;red\xa0;\xa0yes\n2;blue;no\n", "reads"),
    "form feed": (HEADER + "1.5\x0c;re\x0cd;yes\n2;\x0cblue;no\x0c\n", "reads"),
    "unicode separators": (HEADER + "1.5\x1c;re\x85d;yes\u2028\n\u30002;blue\x1f;no\n", "reads"),
    "nul inside a cell": (HEADER + "1.5;re\x00d;yes\n", "reads"),
    "hash cell": (HEADER + "#;red;yes\n", "defers"),
    "hash line": (HEADER + "#1.5;red;yes\n", "defers"),
    "hash category": (HEADER + "1.5;#red;yes\n2;red # x;no\n", "reads"),
    "underscore digits": (HEADER + "1_0;red;yes\n2;blue;no\n", "defers"),
    "arabic-indic digits": (HEADER + "\u0661\u0662;red;yes\n", "defers"),
    "inf": (HEADER + "1;red;yes\ninf;blue;no\n", "defers"),
    "minus infinity": (HEADER + "-Infinity;red;yes\n", "defers"),
    "nan": (HEADER + "nan;red;yes\n", "defers"),
    "overflow": (HEADER + "1e400;red;yes\n", "defers"),
    "signed zero and short forms": (HEADER + "-0;red;yes\n.5;b;no\n5.;red;no\n+1;b;yes\n", "reads"),
    "exponents": (HEADER + "1E5;red;yes\n-2.5e-3;blue;no\n4e-320;red;no\n", "reads"),
    "hex float": (HEADER + "0x10;red;yes\n", "defers"),
    "empty number": (HEADER + ";red;yes\n", "defers"),
    "blank number": (HEADER + "  ;red;yes\n", "defers"),
    "empty category": (HEADER + "1;;yes\n2;red;no\n", "reads"),
    "unknown target": (HEADER + "1.5;red;yes\n2;blue;maybe\n", "defers"),
    "padded target": (HEADER + "1.5;red; yes \n", "reads"),
    "bad number and bad target": (HEADER + "1.5;red;maybe\nx;blue;no\n", "defers"),
    "one data row": (HEADER + "1.5;red;yes", "reads"),
    "empty file": ("", "defers"),
    "header only": ("x;color;label", "defers"),
    "header and newline": (HEADER, "defers"),
    "header and blank lines": (HEADER + "\n\r\n\n", "defers"),
    "blank first line": ("\n1.5;red;yes\n", "raises"),
    "missing column": ("x;label\n1.5;yes\n", "raises"),
    "unexpected column": ("x;color;label;y\n1.5;red;yes;1\n", "raises"),
    "duplicate column": ("x;color;label;x\n1.5;red;yes;1\n", "raises"),
    "byte order mark": ("\ufeff" + HEADER + "1.5;red;yes\n", "reads"),
    "byte order mark before a quoted header": ('\ufeff"x";color;label\n1.5;red;yes\n', "defers"),
    "byte order mark inside a row": (HEADER + "1.5;red;yes\n\ufeff2;blue;no\n", "defers"),
    "field over the csv limit": (HEADER + "1.5;" + "r" * 140_000 + ";yes\n", "defers"),
}


@pytest.mark.parametrize("case", sorted(TINY_CASES))
def test_tiny_table_matches_csv_path(case, tmp_path):
    text, expected_path = TINY_CASES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same(tiny_spec(path), expected_path)


def test_pinned_vocabulary_matches_csv_path(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(HEADER + "1.5;red;yes\n2;blue;no\n3; green ;no\n", encoding="utf-8")
    spec = tiny_spec(path, vocabularies={"color": ("green", "red", "violet")})
    result = assert_same(spec, "reads")
    assert result[-2] == ("x", "color=green", "color=red", "color=violet")


@pytest.mark.parametrize("delimiter", [",", "\t", " "])
def test_other_delimiters_match_csv_path(delimiter, tmp_path):
    path = tmp_path / "t.csv"
    for k, body in enumerate(["1.5;red;yes\n2;blue;no\n", "1.5;;red;yes\n", " 1.5;red;yes\n"]):
        path.write_text((HEADER + body).replace(";", delimiter), encoding="utf-8")
        assert_same(tiny_spec(path, delimiter=delimiter), "reads" if k == 0 else None)


GRADE_CASES = {
    "integers": (GRADE_HEADER + "1;red;9\n2;blue;10\n3;red;20\n4;red;0\n", "reads"),
    "signed and padded": (GRADE_HEADER + "1;red; +12 \n2;blue;-0\n3;red;\xa07\n", "reads"),
    "underscore grade": (GRADE_HEADER + "1;red;1_0\n2;blue;3\n", "reads"),
    "arabic-indic grade": (GRADE_HEADER + "1;red;\u0661\u0662\n2;blue;3\n", "reads"),
    "non-integer grade": (GRADE_HEADER + "1;red;9\n2;blue;9.5\n", "defers"),
    "empty grade": (GRADE_HEADER + "1;red;\n", "defers"),
    "grade and number both bad": (GRADE_HEADER + "x;red;9\n2;blue;nine\n", "defers"),
}


@pytest.mark.parametrize("case", sorted(GRADE_CASES))
def test_grade_table_matches_csv_path(case, tmp_path):
    text, expected_path = GRADE_CASES[case]
    path = tmp_path / "g.csv"
    path.write_text(text, encoding="utf-8")
    assert_same(grade_spec(path), expected_path)


def test_grade_column_that_is_not_the_target_defers(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("x;color;label\n1;red;yes\n12;blue;no\n", encoding="utf-8")
    spec = replace(tiny_spec(path), grade_column="x")
    assert_same(spec, "defers")


def test_undecodable_and_missing_files_match_csv_path(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(HEADER.encode() + b"1.5;r\xffd;yes\n")
    unreadable = ("raised", UnreadableFileError, f"{path}: not UTF-8 text (invalid start byte)")
    assert assert_same(tiny_spec(path), "defers") == unreadable
    late = tmp_path / "late.csv"  # the bad byte lies past the csv reader's first chunk
    late.write_bytes(HEADER.encode() + b"1.5;red;yes\n" * 2000 + b"2;r\xffd;no\n")
    assert assert_same(tiny_spec(late), "defers")[1] is UnreadableFileError
    wide = tmp_path / "wide.csv"
    wide.write_text(HEADER + "1.5;red;yes\n2;" + "r" * 140_000 + ";no\n", encoding="utf-8")
    message = f"{wide}: line 3: field larger than field limit (131072)"
    assert assert_same(tiny_spec(wide), "defers") == ("raised", UnreadableFileError, message)
    assert assert_same(tiny_spec(tmp_path / "missing.csv"), "raises")[1] is FileNotFoundError


@pytest.mark.parametrize("key", ["A", "B"])
@pytest.mark.parametrize("rows", [1, 300])
def test_builtin_schemas_match_csv_path(key, rows, tmp_path):
    spec = builtin_dataset(key, tmp_path)
    write = write_dataset_a_like if key == "A" else write_dataset_b_like
    write(spec.path, n=rows, seed=5)
    assert_same(spec, "reads")


@pytest.mark.parametrize("key", ["A", "B"])
def test_byte_order_mark_is_dropped_on_both_paths(key, tmp_path):
    plain, marked = builtin_dataset(key, tmp_path / "plain"), builtin_dataset(key, tmp_path / "bom")
    write = write_dataset_a_like if key == "A" else write_dataset_b_like
    for spec in (plain, marked):
        spec.path.parent.mkdir()
        write(spec.path, n=300, seed=7)
    marked.path.write_bytes(b"\xef\xbb\xbf" + plain.path.read_bytes())
    want = outcome(lambda: load_encoded(plain))
    assert want[0] == "ok"
    assert assert_same(marked, "reads") == want  # the one-pass read and the csv path alike


def test_quoted_builtin_table_defers(tmp_path):
    spec = builtin_dataset("A", tmp_path)
    write_dataset_a_like(spec.path, n=50, seed=6)
    header, *rows = spec.path.read_text(encoding="utf-8").splitlines()
    quoted = [";".join(f'"{c}"' if c.isalpha() else c for c in row.split(";")) for row in rows]
    spec.path.write_text("\n".join([header, *quoted]) + "\n", encoding="utf-8")
    assert_same(spec, "defers")


def random_decimals(rng, n: int) -> list[str]:
    """Decimal strings with long mantissas, any point position and exponents near the limits."""
    out = []
    for _ in range(n):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 30))))
        point = int(rng.integers(0, len(digits) + 1))
        mantissa = digits[:point] + ("." if rng.random() < 0.8 else "") + digits[point:]
        exponent = ""
        if rng.random() < 0.6:
            exponent = f"{rng.choice(['e', 'E'])}{int(rng.integers(-340, 280))}"
        out.append(rng.choice(["", "-", "+"]) + mantissa + exponent)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_decimals_match_csv_path(seed, tmp_path):
    rng = np.random.default_rng(seed)
    values = random_decimals(rng, 3000)
    labels = rng.choice(["yes", "no"], size=len(values))
    path = tmp_path / "t.csv"
    rows = [f"{v};c{i % 5};{y}\n" for i, (v, y) in enumerate(zip(values, labels))]
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    result = assert_same(tiny_spec(path), "reads")
    parsed = np.frombuffer(result[3]).reshape(result[2])[:, 0]
    assert parsed.tobytes() == np.array([float(v) for v in values]).tobytes()
