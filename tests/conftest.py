"""Shared fixtures: synthetic tables on disk and real-data discovery.

The acceptance tests that check reference results need the two real
benchmark tables.  They are looked up in $FEDTAB_DATA_DIR, falling back to
./data; when absent, those tests skip with a pointer to `fedtab
fetch-data`.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from _synth import (
    grades_dataset_spec,
    outcomes_dataset_spec,
    write_grades_csv,
    write_outcomes_csv,
)
from fedtab import kernel
from fedtab.schemas import DATA_FILES


def real_data_dir() -> Path:
    return Path(os.environ.get("FEDTAB_DATA_DIR", "data"))


def missing_real_data() -> list[str]:
    return [key for key, name in DATA_FILES.items() if not (real_data_dir() / name).is_file()]


requires_real_data = pytest.mark.skipif(
    bool(missing_real_data()),
    reason=(
        f"benchmark tables {missing_real_data()} not found under {real_data_dir()}/ "
        "(run `fedtab fetch-data --dest data` or set FEDTAB_DATA_DIR)"
    ),
)


@pytest.fixture(scope="session")
def grades_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "grades.csv"
    write_grades_csv(path)
    return grades_dataset_spec(path)


@pytest.fixture(scope="session")
def outcomes_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "outcomes.csv"
    write_outcomes_csv(path)
    return outcomes_dataset_spec(path)


@pytest.fixture(scope="session", autouse=True)
def private_kernel_cache(tmp_path_factory):
    """Build the compiled kernels into this session's temporary directory.

    The suite then never reads or writes the user's own cache, and its first
    SVM or forest training builds the kernels afresh.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        patch.setattr(kernel, "_loaded", None)
        yield


@pytest.fixture
def kernel_off(monkeypatch):
    """Run ``train_svm``'s Python loop and ``train_forest``'s numpy split search.

    They are what runs when the compiled kernels are unavailable.
    """
    monkeypatch.setattr(kernel, "_loaded", "forced off by the test")


@pytest.fixture(params=["compiled", "python"])
def each_path(request, monkeypatch):
    """The compiled kernels, then the Python paths; compiled skips where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(kernel, "_loaded", "forced off by the test")
    elif kernel.load() is None:
        pytest.skip(f"compiled kernels unavailable ({kernel.path()})")
    return request.param
