"""Offline checks of ``fetch.verify_dataset`` on stand-ins of the real tables.

No download happens here: each stand-in is written at the published row
count, so the check a fetched file must pass can be exercised without the
network.
"""

from __future__ import annotations

import pytest

from _synth import quote_strings, write_dataset_a_like, write_dataset_b_like
from fedtab.errors import NonNumericCellError
from fedtab.fetch import FetchError, verify_dataset
from fedtab.schemas import DATA_FILES, EXPECTED_ROWS

WRITERS = {"A": write_dataset_a_like, "B": write_dataset_b_like}


def real_size_standin(key, data_dir):
    return WRITERS[key](data_dir / DATA_FILES[key], n=EXPECTED_ROWS[key], seed=0)


@pytest.mark.parametrize("key", ["A", "B"])
def test_real_size_standin_verifies(key, tmp_path):
    real_size_standin(key, tmp_path)
    verify_dataset(key, tmp_path)


@pytest.mark.parametrize("key", ["A", "B"])
def test_quoted_real_size_standin_verifies(key, tmp_path):
    path = quote_strings(real_size_standin(key, tmp_path))
    assert '"' in path.read_text(encoding="utf-8")
    verify_dataset(key, tmp_path)


@pytest.mark.parametrize("key", ["A", "B"])
def test_standin_one_row_short_is_a_fetch_error(key, tmp_path):
    path = real_size_standin(key, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    expected = EXPECTED_ROWS[key]
    with pytest.raises(FetchError, match=f"expected {expected} rows, found {expected - 1}"):
        verify_dataset(key, tmp_path)


def test_standin_with_a_bad_cell_fails_as_the_reader_does(tmp_path):
    path = real_size_standin("B", tmp_path)
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = first.split(";")
    cells[1] = "n/a"  # "Application mode", a continuous column
    path.write_text(header + ";".join(cells) + "".join(rest), encoding="utf-8")
    with pytest.raises(NonNumericCellError, match="'Application mode', row 1: 'n/a' is not numeric"):
        verify_dataset("B", tmp_path)
