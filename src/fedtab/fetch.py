"""Download and verify the two benchmark tables.

Both tables are published as zip archives in the UCI repository.  The
fetcher downloads each archive, digs the relevant csv out (one archive
nests a second zip) and verifies it: it must read as the built-in schema's
table, with the published record count.  Only then is it stored under its
canonical name.  The sha256 of each stored file is printed so it can be
pinned with --sha256 on later runs.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

from .errors import DataError, InvalidConfigError
from .schemas import DATA_FILES, EXPECTED_ROWS, builtin_dataset, load_dataset

ARCHIVE_URLS = {
    "A": "https://archive.ics.uci.edu/static/public/320/student+performance.zip",
    "B": "https://archive.ics.uci.edu/static/public/697/predict+students+dropout+and+academic+success.zip",
}
ARCHIVE_MEMBERS = {"A": "student-mat.csv", "B": "data.csv"}


class FetchError(DataError):
    """Download or archive extraction failed."""


def _download(url: str, timeout: float) -> bytes:
    request = urllib.request.Request(url, headers={"User-Agent": "fedtab-fetch/0.1"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as err:
        raise FetchError(f"download failed for {url}: {err}") from None


def _extract_member(archive: bytes, member_name: str) -> bytes:
    """Find a member by basename, descending one level into nested zips."""
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        nested = []
        for info in zf.infolist():
            base = Path(info.filename).name
            if base == member_name:
                return zf.read(info)
            if base.endswith(".zip"):
                nested.append(info)
        for info in nested:
            try:
                return _extract_member(zf.read(info), member_name)
            except FetchError:
                continue
    raise FetchError(f"archive does not contain {member_name!r}")


def fetch_dataset(
    key: str,
    dest: str | Path,
    sha256: str | None = None,
    timeout: float = 60.0,
    report=print,
) -> Path:
    """Download one table into ``dest`` and verify it; returns the file path.

    The download is checked against the ``sha256`` pin and verified in a
    temporary directory under ``dest``, then moved onto the canonical name.
    On any failure the file already at that name stays as it was.  A
    ``dest`` that cannot be made a directory (a regular file, say) is a
    configuration error, raised before any download.
    """
    dest = Path(dest)
    try:
        dest.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a regular file in the way, no permission
        raise InvalidConfigError(f"fetch destination {dest} is not a usable directory: "
                                 f"{err.strerror}") from None
    target = dest / DATA_FILES[key]

    payload = _download(ARCHIVE_URLS[key], timeout)
    content = _extract_member(payload, ARCHIVE_MEMBERS[key])
    digest = hashlib.sha256(content).hexdigest()
    if sha256 is not None and digest != sha256.lower():
        raise FetchError(f"dataset {key}: sha256 mismatch: got {digest}, expected {sha256}")
    with tempfile.TemporaryDirectory(dir=dest) as staging:
        staged = Path(staging) / DATA_FILES[key]
        staged.write_bytes(content)
        verify_dataset(key, staging)
        os.replace(staged, target)
    report(f"dataset {key}: wrote {target} ({len(content)} bytes, sha256 {digest})")
    return target


def verify_dataset(key: str, data_dir: str | Path) -> None:
    """The stored table reads through ``load_dataset`` and has the published row count."""
    n_rows = load_dataset(builtin_dataset(key, data_dir)).n_samples
    if n_rows != EXPECTED_ROWS[key]:
        raise FetchError(f"dataset {key}: expected {EXPECTED_ROWS[key]} rows, found {n_rows}")


def fetch_all(
    dest: str | Path,
    keys: tuple[str, ...] = ("A", "B"),
    pins: dict[str, str] | None = None,
    report=print,
) -> list[Path]:
    pins = pins or {}
    return [fetch_dataset(key, dest, pins.get(key), report=report) for key in keys]
