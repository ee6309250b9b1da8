"""Offline checks of ``fetch.verify_dataset`` and ``fetch.fetch_dataset`` on stand-ins.

No download happens here: each stand-in is written at the published row
count, so the check a fetched file must pass can be exercised without the
network, and ``fetch_dataset`` is handed an in-memory archive of one.
"""

from __future__ import annotations

import hashlib
import io
import re
import zipfile

import pytest

from _synth import quote_strings, write_dataset_a_like, write_dataset_b_like
from fedtab import fetch
from fedtab.errors import NonNumericCellError
from fedtab.fetch import ARCHIVE_MEMBERS, FetchError, fetch_dataset, verify_dataset
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


def zip_of(members):
    """The bytes of a zip archive holding ``members``, a name -> content mapping."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, content in members.items():
            archive.writestr(name, content)
    return buffer.getvalue()


def standin_archive(tmp_path, drop_last_row=False):
    """A zip holding a real-size stand-in of table A under its archive member name."""
    lines = real_size_standin("A", tmp_path).read_bytes().splitlines(keepends=True)
    content = b"".join(lines[:-1] if drop_last_row else lines)
    return zip_of({f"student/{ARCHIVE_MEMBERS['A']}": content}), content


def test_fetch_publishes_a_verified_download(tmp_path, monkeypatch):
    archive, content = standin_archive(tmp_path)
    monkeypatch.setattr(fetch, "_download", lambda url, timeout: archive)
    dest, said, digest = tmp_path / "data", [], hashlib.sha256(content).hexdigest()
    target = fetch_dataset("A", dest, digest.upper(), report=said.append)
    assert target == dest / DATA_FILES["A"] and target.read_bytes() == content
    assert [p.name for p in dest.iterdir()] == [DATA_FILES["A"]]  # no staging directory left
    assert len(said) == 1 and digest in said[0]


@pytest.mark.parametrize("fault", ["one row short", "wrong pin"])
def test_failed_fetch_keeps_the_earlier_file(fault, tmp_path, monkeypatch):
    good, content = standin_archive(tmp_path)
    monkeypatch.setattr(fetch, "_download", lambda url, timeout: good)
    dest = tmp_path / "data"
    target = fetch_dataset("A", dest, report=lambda line: None)

    bad = standin_archive(tmp_path, drop_last_row=True)[0] if fault == "one row short" else good
    monkeypatch.setattr(fetch, "_download", lambda url, timeout: bad)
    pin = "0" * 64 if fault == "wrong pin" else None
    with pytest.raises(FetchError, match="rows, found" if pin is None else "sha256 mismatch"):
        fetch_dataset("A", dest, pin, report=lambda line: None)
    assert target.read_bytes() == content
    assert [p.name for p in dest.iterdir()] == [DATA_FILES["A"]]


def test_fetch_finds_the_table_in_a_nested_zip(tmp_path, monkeypatch):
    # the table A download holds its csv files inside a second zip
    content = real_size_standin("A", tmp_path).read_bytes()
    archive = zip_of({
        "README.txt": b"about\n",
        "decoy.zip": zip_of({"other.csv": b"a\n"}),  # searched first, holds no table
        "student.zip": zip_of({ARCHIVE_MEMBERS["A"]: content}),
    })
    monkeypatch.setattr(fetch, "_download", lambda url, timeout: archive)
    target = fetch_dataset("A", tmp_path / "data", report=lambda line: None)
    assert target.read_bytes() == content


def test_fetch_names_a_member_found_at_neither_level(tmp_path, monkeypatch):
    archive = zip_of({"README.txt": b"about\n", "student.zip": zip_of({"other.csv": b"a\n"})})
    monkeypatch.setattr(fetch, "_download", lambda url, timeout: archive)
    dest = tmp_path / "data"
    with pytest.raises(FetchError, match=re.escape(f"does not contain {ARCHIVE_MEMBERS['A']!r}")):
        fetch_dataset("A", dest, report=lambda line: None)
    assert list(dest.iterdir()) == []
