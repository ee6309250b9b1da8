"""The one table reader against the csv reference reader it must reproduce.

``load_dataset(spec)`` must return exactly what ``_oracles.csv_load_dataset``
returns (feature and label bytes, dtypes, names, read-only flags) or raise
the same exception class with the same message.  Every input here is read
both ways: plain, quoted and broken tables, and random texts built from
quotes, delimiters and line ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import csv_load_dataset
from _synth import write_dataset_a_like, write_dataset_b_like
from fedtab.dataset import ColumnSpec, FeatureSchema
from fedtab.errors import UnreadableFileError
from fedtab.schemas import DatasetSpec, builtin_dataset, load_dataset

HEADER = "x;color;label\n"
GRADE_HEADER = "x;color;g\n"


def tiny_spec(path) -> DatasetSpec:
    schema = FeatureSchema(
        (ColumnSpec("x", "continuous"), ColumnSpec("color", "categorical"),
         ColumnSpec("label", "target")),
        ("no", "yes"),
    )
    return DatasetSpec("tiny", path, schema)


def grade_spec(path) -> DatasetSpec:
    schema = FeatureSchema(
        (ColumnSpec("x", "continuous"), ColumnSpec("color", "categorical"),
         ColumnSpec("g", "target")),
        ("fail", "pass"),
    )
    return DatasetSpec("graded", path, schema, pass_threshold=10)


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


def assert_same(spec):
    expected = outcome(lambda: csv_load_dataset(spec))
    assert outcome(lambda: load_dataset(spec)) == expected
    return expected


TINY_CASES = {
    "plain": HEADER + "1.5;red;yes\n2;blue;no\n",
    "header reordered and padded": " label ;x;\tcolor\nyes;1.5;red\nno;2;blue\n",
    "quoted cells": HEADER + '"1.5";"red";yes\n2;blue;no\n',
    "quoted delimiter": HEADER + '1.5;"r;ed";yes\n2;blue;no\n',
    "quoted header": '"x";color;label\n1.5;red;yes\n',
    "stray quote": HEADER + '1.5;re"d;yes\n',
    "doubled quote": HEADER + '1.5;"r""ed";yes\n2;"""blue""";no\n',
    "doubled quotes around a number": HEADER + '"""1.5""";red;yes\n',
    "quoted field spanning lines": HEADER + '1.5;"r\ned";yes\n2;"blue\r\n";no\n',
    "quoted header spanning lines": '"x";"co\nlor";label\n1.5;red;yes\n',
    "whitespace inside quotes": HEADER + '" 1.5 ";" red\t";" yes "\n2;blue;no\n',
    "space before a quote": HEADER + '1.5; "red";yes\n 2;"blue" ;no\n',
    "text after a closing quote": HEADER + '1.5;"re"d;yes\n"2"5;blue;no\n',
    "unterminated quote": HEADER + '1.5;"red;yes\n2;blue;no\n',
    "unterminated quote in the last cell": HEADER + '1.5;red;"yes\n',
    "quoted number over the csv limit across lines": (
        HEADER + '"' + "\n" * 140_000 + '1.5";red;yes\n'
    ),
    "crlf": "x;color;label\r\n1.5;red;yes\r\n2;blue;no\r\n",
    "lone cr": "x;color;label\r1.5;red;yes\r2;blue;no\r",
    "mixed line ends": "x;color;label\r\n1.5;red;yes\r2;blue;no\n3;red;no",
    "blank lines": HEADER + "\n1.5;red;yes\n\n\n2;blue;no\n\n",
    "blank crlf lines": "x;color;label\r\n\r\n1.5;red;yes\r\n\r\n",
    "whitespace-only line": HEADER + "1.5;red;yes\n   \n2;blue;no\n",
    "tab-only line": HEADER + "1.5;red;yes\n\t\n",
    "short row": HEADER + "1.5;red;yes\n2;blue\n",
    "long row": HEADER + "1.5;red;yes\n2;blue;no;7\n",
    "every row long": HEADER + "1.5;red;yes;1\n2;blue;no;2\n",
    "trailing delimiter": HEADER + "1.5;red;yes;\n",
    "spaces and tabs": HEADER + " 1.5 ;\tred ;yes\t\n2\t; blue;  no\n",
    "no-break spaces": HEADER + "\xa01.5\xa0;red\xa0;\xa0yes\n2;blue;no\n",
    "form feed": HEADER + "1.5\x0c;re\x0cd;yes\n2;\x0cblue;no\x0c\n",
    "unicode separators": HEADER + "1.5\x1c;re\x85d;yes\u2028\n\u30002;blue\x1f;no\n",
    "nul inside a cell": HEADER + "1.5;re\x00d;yes\n",
    "hash cell": HEADER + "#;red;yes\n",
    "hash line": HEADER + "#1.5;red;yes\n",
    "hash category": HEADER + "1.5;#red;yes\n2;red # x;no\n",
    "underscore digits": HEADER + "1_0;red;yes\n2;blue;no\n",
    "underscore in a category": HEADER + "1;at_home;yes\n2.5;blue;no\n",
    "arabic-indic digits": HEADER + "\u0661\u0662;red;yes\n",
    "inf": HEADER + "1;red;yes\ninf;blue;no\n",
    "minus infinity": HEADER + "-Infinity;red;yes\n",
    "nan": HEADER + "nan;red;yes\n",
    "overflow": HEADER + "1e400;red;yes\n",
    "signed zero and short forms": HEADER + "-0;red;yes\n.5;b;no\n5.;red;no\n+1;b;yes\n",
    "exponents": HEADER + "1E5;red;yes\n-2.5e-3;blue;no\n4e-320;red;no\n",
    "hex float": HEADER + "0x10;red;yes\n",
    "empty number": HEADER + ";red;yes\n",
    "blank number": HEADER + "  ;red;yes\n",
    "empty category": HEADER + "1;;yes\n2;red;no\n",
    "unknown target": HEADER + "1.5;red;yes\n2;blue;maybe\n",
    "padded target": HEADER + "1.5;red; yes \n",
    "bad number and bad target": HEADER + "1.5;red;maybe\nx;blue;no\n",
    "one data row": HEADER + "1.5;red;yes",
    "empty file": "",
    "header only": "x;color;label",
    "header and newline": HEADER,
    "header and blank lines": HEADER + "\n\r\n\n",
    "blank first line": "\n1.5;red;yes\n",
    "missing column": "x;label\n1.5;yes\n",
    "unexpected column": "x;color;label;y\n1.5;red;yes;1\n",
    "duplicate column": "x;color;label;x\n1.5;red;yes;1\n",
    "byte order mark": "\ufeff" + HEADER + "1.5;red;yes\n",
    "byte order mark before a quoted header": '\ufeff"x";color;label\n1.5;red;yes\n',
    "byte order mark inside a row": HEADER + "1.5;red;yes\n\ufeff2;blue;no\n",
    "field over the csv limit": HEADER + "1.5;" + "r" * 140_000 + ";yes\n",
    "number over the csv limit": HEADER + "0" * 140_000 + "1;red;yes\n",
    "header field over the csv limit": "x;color;label" + "l" * 140_000 + "\n1.5;red;yes\n",
    "line over the csv limit, fields within it": (
        HEADER + "1.5;" + "r" * 100_000 + ";yes\n2;" + "b" * 100_000 + ";no\n"
    ).replace(";yes", ";" + " " * 50_000 + "yes"),
}


@pytest.mark.parametrize("case", sorted(TINY_CASES))
def test_tiny_table_matches_csv_path(case, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(TINY_CASES[case].encode("utf-8"))
    assert_same(tiny_spec(path))


def test_quoted_cells_read_as_their_unquoted_values(tmp_path):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text(HEADER + "1.5;red;yes\n2;blue;no\n", encoding="utf-8")
    quoted.write_text(HEADER + '"1.5";" red";"yes"\n2;"blue" ;"""no"""\n', encoding="utf-8")
    want = outcome(lambda: load_dataset(tiny_spec(plain)))
    assert want[0] == "ok"
    assert assert_same(tiny_spec(quoted)) == want


GRADE_CASES = {
    "integers": GRADE_HEADER + "1;red;9\n2;blue;10\n3;red;20\n4;red;0\n",
    "signed and padded": GRADE_HEADER + "1;red; +12 \n2;blue;-0\n3;red;\xa07\n",
    "underscore grade": GRADE_HEADER + "1;red;1_0\n2;blue;3\n",
    "arabic-indic grade": GRADE_HEADER + "1;red;\u0661\u0662\n2;blue;3\n",
    "quoted grade": GRADE_HEADER + '1;red;"9"\n2;blue;" 10 "\n3;red;"""12"""\n',
    "quoted non-integer grade": GRADE_HEADER + '1;red;"9"\n2;blue;"9.5"\n',
    "non-integer grade": GRADE_HEADER + "1;red;9\n2;blue;9.5\n",
    "empty grade": GRADE_HEADER + "1;red;\n",
    "grade and number both bad": GRADE_HEADER + "x;red;9\n2;blue;nine\n",
}


@pytest.mark.parametrize("case", sorted(GRADE_CASES))
def test_grade_table_matches_csv_path(case, tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(GRADE_CASES[case], encoding="utf-8")
    assert_same(grade_spec(path))


def test_undecodable_and_missing_files_match_csv_path(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(HEADER.encode() + b"1.5;r\xffd;yes\n")
    unreadable = ("raised", UnreadableFileError, f"{path}: not UTF-8 text (invalid start byte)")
    assert assert_same(tiny_spec(path)) == unreadable
    late = tmp_path / "late.csv"  # the bad byte lies past the csv reader's first chunk
    late.write_bytes(HEADER.encode() + b"1.5;red;yes\n" * 2000 + b"2;r\xffd;no\n")
    assert assert_same(tiny_spec(late))[1] is UnreadableFileError
    ragged_first = tmp_path / "ragged.csv"  # the csv walk meets the short row first
    ragged_first.write_bytes(HEADER.encode() + b"1.5;red\n" + b"1.5;red;yes\n" * 2000 + b"\xff")
    assert assert_same(tiny_spec(ragged_first))[2] == f"{ragged_first}: line 2 has 2 cells, expected 3"
    wide = tmp_path / "wide.csv"
    wide.write_text(HEADER + "1.5;red;yes\n2;" + "r" * 140_000 + ";no\n", encoding="utf-8")
    message = f"{wide}: line 3: field larger than field limit (131072)"
    assert assert_same(tiny_spec(wide)) == ("raised", UnreadableFileError, message)
    assert assert_same(tiny_spec(tmp_path / "missing.csv"))[1] is FileNotFoundError


@pytest.mark.parametrize("key", ["A", "B"])
@pytest.mark.parametrize("rows", [1, 300])
def test_builtin_schemas_match_csv_path(key, rows, tmp_path):
    spec = builtin_dataset(key, tmp_path)
    write = write_dataset_a_like if key == "A" else write_dataset_b_like
    write(spec.path, n=rows, seed=5)
    assert assert_same(spec)[0] == "ok"


def _builtin_pair(key, tmp_path, seed):
    plain, other = builtin_dataset(key, tmp_path / "plain"), builtin_dataset(key, tmp_path / "other")
    write = write_dataset_a_like if key == "A" else write_dataset_b_like
    for spec in (plain, other):
        spec.path.parent.mkdir()
        write(spec.path, n=300, seed=seed)
    return plain, other


@pytest.mark.parametrize("key", ["A", "B"])
def test_byte_order_mark_is_dropped_on_both_paths(key, tmp_path):
    plain, marked = _builtin_pair(key, tmp_path, seed=7)
    marked.path.write_bytes(b"\xef\xbb\xbf" + plain.path.read_bytes())
    want = outcome(lambda: load_dataset(plain))
    assert want[0] == "ok"
    assert assert_same(marked) == want


@pytest.mark.parametrize("key", ["A", "B"])
def test_quoted_builtin_table_reads_as_the_plain_one(key, tmp_path):
    plain, quoted = _builtin_pair(key, tmp_path, seed=6)
    header, *rows = plain.path.read_text(encoding="utf-8").splitlines()
    # strings quoted as in the UCI copy of table A, every fifth column's numbers too, CRLF
    rows = [
        ";".join(f'"{c}"' if not c[-1:].isdigit() or k % 5 == 0 else c
                 for k, c in enumerate(row.split(";")))
        for row in rows
    ]
    quoted.path.write_text("\r\n".join([header, *rows]) + "\r\n", encoding="utf-8")
    want = outcome(lambda: load_dataset(plain))
    assert want[0] == "ok"
    assert assert_same(quoted) == want


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
    result = assert_same(tiny_spec(path))
    parsed = np.frombuffer(result[3]).reshape(result[2])[:, 0]
    assert parsed.tobytes() == np.array([float(v) for v in values]).tobytes()


# cells that read, cells that do not, and the quote, delimiter and line-end
# pieces that random texts are built from
NUMBERS = ["1", "2.5", "-3e2", '"4"', ' "5"', '"6" ', "1_0", "\u0662", '"""7"""', "\x0c2\x1c", "+.5"]
BAD_NUMBERS = ["nan", "", "x", '"8', '9"', "0x1"]
COLORS = ["red", '"red"', '"r;d"', '"a""b"', ' "q"', '"ab"cd', 'a"b', "", '"x\ny"', '"u\r\nv"',
          "\xe9", "_z", '"']
TARGETS = ["yes", "no", '"yes"', " no ", '"n"o', ' "yes"']
BAD_TARGETS = ["maybe", '"y;es"', "", '"no"x']
GRADES = ["9", "10", "12", '"11"', " 3 ", "1_0", "\u0661\u0662", '"7"']
BAD_GRADES = ["9.5", "", "x"]
PIECES = ["1", "2.5", " ", "\t", '"', '""', ";", "\n", "\r", "\r\n", "yes", "no", "red", "12",
          "1_0", "\u0661", "e5", "nan", "\x0c", "\x1c", "\xa0"]


def random_table(rng, graded: bool) -> str:
    """A header and a few rows of random cells, or a header and random pieces."""
    header = "x;color;" + ("g" if graded else "label")
    if rng.random() < 0.2:
        header = header.replace("x;", '"x";')
    if rng.random() < 0.3:
        return header + "\n" + "".join(rng.choice(PIECES, size=int(rng.integers(0, 30))))
    good = rng.random() < 0.7
    targets = (GRADES if good else GRADES + BAD_GRADES) if graded else (
        TARGETS if good else TARGETS + BAD_TARGETS)
    lines = []
    for _ in range(int(rng.integers(0, 6))):
        row = [rng.choice(NUMBERS if good else NUMBERS + BAD_NUMBERS), rng.choice(COLORS),
               rng.choice(targets)]
        if rng.random() < 0.05:
            row.append("1")
        lines.append(";".join(row))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "\r"]))
    ends = ["\n", "\r\n", "\r"]
    return header + rng.choice(ends) + rng.choice(ends).join(lines) + rng.choice(["", "\n"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_texts_match_csv_path(seed, tmp_path):
    rng = np.random.default_rng(seed)
    path = tmp_path / "t.csv"
    read = 0
    for _ in range(300):
        graded = rng.random() < 0.3
        path.write_bytes(random_table(rng, graded).encode("utf-8"))
        read += assert_same(grade_spec(path) if graded else tiny_spec(path))[0] == "ok"
    assert read >= 20  # the texts reach the read as well as the faults
