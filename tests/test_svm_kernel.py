"""The compiled kernels' loader: where it caches, and every way it falls back.

Each fallback must leave ``train_svm`` on its Python loop or
``train_forest`` on its Python grower, or both, with the oracles' bytes.
The tests point the cache at a fresh directory and reset the module's
loaded-kernel handle, so each one builds or rejects from scratch.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import stat
import subprocess
from pathlib import Path

import numpy as np
import pytest

import test_golden
from _oracles import assert_same_tree_bytes, assert_trees_match, per_feature_forest, vectorized_svm
from _synth import blob_dataset
from fedtab import kernel
from fedtab.dataset import EncodedDataset
from fedtab.models import (
    LinearModel,
    TrainConfig,
    _python_svm_epoch,
    _signed_targets,
    train_forest,
    train_svm,
)

requires_cc = pytest.mark.skipif(kernel.compiler() is None, reason="no C compiler on PATH")

# the dots as a plain left-to-right loop: right to within rounding, but not
# the bits numpy's BLAS gives, so the load-time check must refuse it
_PLAIN_LOOP_DOTS = """
    for (int64_t r = 0; r < rows; r++) {
        double sum = 0.0;
        for (int64_t j = 0; j < d; j++)
            sum += w[r * d + j] * x[j];
        dots[r] = sum;
    }
    return;
"""


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_loaded", None)
    return tmp_path / "cache" / "fedtab"


def _cached(cache):
    return [p for p in cache.iterdir() if p.suffix == ".so"] if cache.is_dir() else []


def _plain_loop_source(tmp_path):
    source = kernel.SOURCE.read_text(encoding="utf-8")
    head = "double *dots, ddot_fn ddot, dgemv_fn dgemv)\n{"
    assert source.count(head) == 1
    path = tmp_path / "plain_loop.c"
    path.write_text(source.replace(head, head + _PLAIN_LOOP_DOTS), encoding="utf-8")
    return path


def _assert_oracle_bytes():
    # 3 classes at the B stand-in's width, warm: dgemv's main loop, every update kind
    data = blob_dataset(40, n_classes=3, n_features=39, seed=4, spread=16.0)
    rng = np.random.default_rng(11)
    init_w, init_b = rng.normal(0.0, 0.5, (3, 39)), rng.normal(0.0, 0.5, 3)
    init = LinearModel(init_w.copy(), init_b.copy(), "svm", 3)
    for l2 in (1e-3, 0.1):
        model = train_svm(data, TrainConfig(learning_rate=0.05, epochs=7, l2=l2, seed=3), init)
        weights, bias = vectorized_svm(
            data.features, data.labels, 3, 7, 0.05, l2, 3, init_w, init_b
        )
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
    # repeated values and 3 classes; min_leaf 1 lets nodes split down to 2 rows
    data = blob_dataset(30, n_classes=3, n_features=8, seed=3, spread=3.0)
    X = np.round(data.features)
    forest = train_forest(
        EncodedDataset(X, data.labels, 3, data.feature_names),
        TrainConfig(n_trees=2, max_depth=8, min_leaf=1, seed=5),
    )
    assert_trees_match(forest.trees, per_feature_forest(X, data.labels, 3, 2, 8, 1, 5))


@requires_cc
def test_kernel_builds_once_into_a_private_cache(fresh_cache):
    assert kernel.path() == "compiled"
    (built,) = _cached(fresh_cache)
    assert stat.S_IMODE(fresh_cache.stat().st_mode) == 0o700
    assert fresh_cache.stat().st_uid == os.getuid()
    assert sorted(fresh_cache.iterdir()) == [built]  # no build leftovers
    _assert_oracle_bytes()
    mtime = built.stat().st_mtime_ns
    kernel._loaded = None
    assert kernel.path() == "compiled"  # loaded from the cache, not rebuilt
    assert _cached(fresh_cache) == [built] and built.stat().st_mtime_ns == mtime


@requires_cc
def test_cache_falls_back_to_home_and_tightens_its_mode(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_loaded", None)
    cache = tmp_path / ".cache" / "fedtab"
    cache.mkdir(parents=True, mode=0o755)
    cache.chmod(0o755)
    assert kernel.path() == "compiled"
    assert len(_cached(cache)) == 1
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700


def _wide_forest():
    """A forest at the B stand-in's width: 39 features, ties, signed zeros, 3 classes."""
    data = blob_dataset(60, n_classes=3, n_features=39, seed=6, spread=3.0)
    X = np.round(data.features)
    X[:, 1] *= 0.0
    X[:, 2] = data.features[:, 2]  # distinct values: sparse rank histograms
    return train_forest(
        EncodedDataset(X, data.labels, 3, data.feature_names),
        TrainConfig(n_trees=3, max_depth=9, min_leaf=2, seed=7),
    )


def test_no_compiler_falls_back_with_the_same_bytes(fresh_cache, monkeypatch):
    compiled = None
    if kernel.compiler() is not None:  # the compiled grower's trees, then no compiler
        assert kernel.path() == "compiled"
        compiled = _wide_forest()
        for built in _cached(fresh_cache):
            built.unlink()
        monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setattr(kernel, "compiler", lambda: None)
    assert kernel.path() == "python: no C compiler (cc) on PATH"
    assert _cached(fresh_cache) == []
    _assert_oracle_bytes()
    if compiled is not None:
        assert_same_tree_bytes(_wide_forest().trees, compiled.trees)


def test_failing_compiler_falls_back_with_the_same_bytes(fresh_cache, tmp_path, monkeypatch):
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\necho 'cc: error: no space left' >&2\nexit 1\n", encoding="utf-8")
    failing.chmod(0o700)
    monkeypatch.setattr(kernel, "compiler", lambda: str(failing))
    assert kernel.path() == f"python: {failing} failed: cc: error: no space left"
    assert _cached(fresh_cache) == []  # the failed build left nothing behind
    _assert_oracle_bytes()


def test_no_writable_cache_falls_back_with_the_same_bytes(tmp_path, monkeypatch):
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setattr(kernel, "_cache_dirs", lambda: iter([blocker / "fedtab"]))
    monkeypatch.setattr(kernel, "_loaded", None)
    assert kernel.path() == "python: no cache directory only this user can write"
    _assert_oracle_bytes()


@requires_cc
def test_dots_that_differ_from_numpy_fall_back_with_the_same_bytes(
    fresh_cache, tmp_path, monkeypatch
):
    monkeypatch.setattr(kernel, "SOURCE", _plain_loop_source(tmp_path))
    assert kernel.path() == "python: compiled dots differ from numpy's weights.dot"
    assert not fresh_cache.exists() or list(fresh_cache.iterdir()) == []  # nothing published
    _assert_oracle_bytes()


@requires_cc
@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong_kernel"])
def test_damaged_cached_kernel_is_rebuilt_or_rejected(
    damage, fresh_cache, tmp_path, monkeypatch
):
    assert kernel.path() == "compiled"
    (built,) = _cached(fresh_cache)
    good = built.read_bytes()
    if damage == "truncated":
        bad = good[: len(good) // 2]
    elif damage == "garbage":
        bad = bytes(range(256)) * 8
    else:  # a loadable kernel whose dots are not numpy's, under the right name
        wrong = tmp_path / "wrong.so"
        cmd = [kernel.compiler(), *kernel.FLAGS, "-o", str(wrong)]
        subprocess.run([*cmd, str(_plain_loop_source(tmp_path))], check=True)
        body = wrong.read_bytes()
        bad = body + hashlib.sha256(body).digest()  # passes the digest, fails the dot check
    built.unlink()  # a new file, never the one this process has mapped
    built.write_bytes(bad)

    monkeypatch.setattr(kernel, "_loaded", None)
    assert kernel.path() == "compiled"  # rebuilt
    assert _cached(fresh_cache) == [built] and built.read_bytes() != bad
    _assert_oracle_bytes()

    built.unlink()
    built.write_bytes(bad)
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setattr(kernel, "compiler", lambda: None)
    assert kernel.path() == "python: no C compiler (cc) on PATH"  # rejected, not loaded
    assert _cached(fresh_cache) == []
    _assert_oracle_bytes()


@requires_cc
def test_runner_refuses_what_the_kernel_would_misread(fresh_cache):
    X, labels, bias = np.zeros((4, 3)), np.array([0, 1, 1, 0]), np.zeros(2)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        kernel.epoch_runner(X, labels, np.zeros((3, 2)).T, bias)  # Fortran order
    with pytest.raises(ValueError, match="C-contiguous float64"):
        kernel.epoch_runner(X, labels, np.zeros((2, 4)), bias)  # wrong width
    with pytest.raises(ValueError, match="C-contiguous 1-d int64"):
        kernel.epoch_runner(X, labels.astype(np.float64), np.zeros((2, 3)), bias)
    with pytest.raises(ValueError, match="expected 4 labels"):
        kernel.epoch_runner(X, labels[:3], np.zeros((2, 3)), bias)
    # one weight row serves classes 0 and 1, and two rows serve theirs: 2 names no class
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        kernel.epoch_runner(X, np.array([0, 2, 1, 0]), np.zeros((2, 3)), bias)
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        kernel.epoch_runner(X, np.array([0, 1, 2, 0]), np.zeros((1, 3)), np.zeros(1))
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        kernel.epoch_runner(X, np.array([0, -1, 1, 0]), np.zeros((2, 3)), bias)
    run = kernel.epoch_runner(X, labels, np.zeros((2, 3)), bias)
    for order in ([0, 1, 2, 4], [0, -1, 2, 3], [0, 1, 2]):
        with pytest.raises(ValueError, match="order of the 4 sample indices"):
            run(np.array(order), 0.1, 0.9)
    run(np.array([3, 1, 2, 0]), 0.1, 0.9)


@requires_cc
@pytest.mark.parametrize("n_classes", [2, 3])
def test_compiled_epoch_forms_the_targets_python_reads(n_classes):
    # one weight row (label 1 is its positive class) and three rows, warm and
    # at the B stand-in's width, so every update kind and sign runs
    rows = 1 if n_classes == 2 else n_classes
    data = blob_dataset(40, n_classes=n_classes, n_features=39, seed=4, spread=16.0)
    X, y = data.features, data.labels
    rng = np.random.default_rng(12)
    start_w, start_b = rng.normal(0.0, 0.5, (rows, 39)), rng.normal(0.0, 0.5, rows)
    compiled_w, compiled_b = start_w.copy(), start_b.copy()
    python_w, python_b = start_w.copy(), start_b.copy()
    compiled = kernel.epoch_runner(X, y, compiled_w, compiled_b)
    assert compiled is not None, kernel.path()
    python = _python_svm_epoch(X, _signed_targets(y, n_classes), python_w, python_b)
    for epoch in range(1, 6):
        order = rng.permutation(y.size)
        for run in (compiled, python):
            run(order, 0.05 / epoch, 1.0 - 0.05 / epoch * 0.1)
        assert compiled_w.tobytes() == python_w.tobytes()
        assert compiled_b.tobytes() == python_b.tobytes()
    assert not np.array_equal(compiled_w, start_w)


# flags that fuse multiply-adds or let the compiler reorder sums, either of
# which moves the kernels' bytes away from numpy's
_UNSAFE_FLAGS = ("-ffast-math", "-Ofast", "-mfma")


def test_build_flags_keep_every_rounding():
    assert "-ffp-contract=off" in kernel.FLAGS
    unsafe = [f for f in kernel.FLAGS if f in _UNSAFE_FLAGS or f.startswith("-march=")]
    assert unsafe == []


@requires_cc
@pytest.mark.parametrize("symbol", kernel.SYMBOLS)
def test_build_lacking_a_symbol_falls_back_once_with_the_same_bytes(
    symbol, fresh_cache, tmp_path, monkeypatch
):
    source = kernel.SOURCE.read_text(encoding="utf-8")
    assert f"{symbol}(" in source
    renamed = tmp_path / "renamed.c"
    renamed.write_text(source.replace(f"{symbol}(", f"{symbol}_renamed("), encoding="utf-8")
    monkeypatch.setattr(kernel, "SOURCE", renamed)
    reason = kernel.path()
    assert reason.startswith("python: compiled kernel lacks a symbol: ")
    assert reason.endswith(f"undefined symbol: {symbol}")
    assert kernel._loaded == reason.removeprefix("python: ")  # no rebuild at the next call
    assert not fresh_cache.exists() or list(fresh_cache.iterdir()) == []  # nothing published
    _assert_oracle_bytes()


# C mutants of the split that a tree of the forest's check must catch:
# (C source, its mutant)
_SPLIT_MUTANTS = {
    # ">=" keeps the last of equal gains, and a zero gain, where numpy's
    # argmax and "> 0" keep the first positive one
    "last_maximum": ("if (gain > best)", "if (gain >= best)"),
    # the class squares are added in class order...
    "squares_summed_right_to_left": (
        "for (int64_t c = 0; c < n_classes; c++) {\n        const double ratio",
        "for (int64_t c = n_classes - 1; c >= 0; c--) {\n        const double ratio",
    ),
    # ...one after another, not in groups as numpy's pairwise sum adds eight or more
    "squares_summed_even_and_odd_apart": (
        "double sum = 0.0;\n    for (int64_t c = 0; c < n_classes; c++) {\n"
        "        const double ratio = (double)counts[c] / (double)size;\n"
        "        sum += ratio * ratio;\n    }\n    return 1.0 - sum;",
        "double sums[2] = {0.0, 0.0};\n    for (int64_t c = 0; c < n_classes; c++) {\n"
        "        const double ratio = (double)counts[c] / (double)size;\n"
        "        sums[c % 2] += ratio * ratio;\n    }\n    return 1.0 - (sums[0] + sums[1]);",
    ),
}


@requires_cc
@pytest.mark.parametrize("mutant", sorted(_SPLIT_MUTANTS))
def test_a_split_unlike_best_split_puts_only_the_forest_on_python(
    mutant, fresh_cache, tmp_path, monkeypatch
):
    source = kernel.SOURCE.read_text(encoding="utf-8")
    original, mutated_text = _SPLIT_MUTANTS[mutant]
    assert source.count(original) == 1
    mutated = tmp_path / f"{mutant}.c"
    mutated.write_text(source.replace(original, mutated_text), encoding="utf-8")
    monkeypatch.setattr(kernel, "SOURCE", mutated)
    assert kernel.path() == "python for train_forest: compiled trees differ from models._grow_tree"
    assert kernel.load() is not None  # the SVM epoch passed its check and stays compiled
    _assert_oracle_bytes()


def _assert_forest_falls_back_alone(reason, tmp_path, monkeypatch):
    assert kernel.path() == f"python for train_forest: {reason}"
    assert kernel.load() is not None  # the SVM epoch stays compiled
    _assert_oracle_bytes()
    test_golden.test_outputs_match_golden_digests("forest_B", tmp_path, monkeypatch)


@requires_cc
def test_a_route_unlike_leaf_index_puts_only_the_forest_on_python(
    fresh_cache, tmp_path, monkeypatch
):
    # "<" sends a row at a split's threshold right, where _leaf_index sends it left
    source = kernel.SOURCE.read_text(encoding="utf-8")
    test = "x[feature[node]] <= threshold[node]"
    assert source.count(test) == 1
    mutated = tmp_path / "strict_route.c"
    mutated.write_text(source.replace(test, "x[feature[node]] < threshold[node]"), encoding="utf-8")
    monkeypatch.setattr(kernel, "SOURCE", mutated)
    reason = "compiled routes differ from models._leaf_index"
    _assert_forest_falls_back_alone(reason, tmp_path, monkeypatch)
    assert kernel.leaf_router() is None  # predict_scores walks in numpy


@requires_cc
def test_draws_that_differ_from_rng_choice_put_only_the_forest_on_python(
    fresh_cache, tmp_path, monkeypatch
):
    draw = kernel._Kernel.draw
    # the same values in another order: a shuffle that is not numpy's
    monkeypatch.setattr(kernel._Kernel, "draw", lambda *args: draw(*args)[::-1].copy())
    reason = "compiled feature draws differ from numpy's rng.choice"
    _assert_forest_falls_back_alone(reason, tmp_path, monkeypatch)


@requires_cc
def test_a_grower_that_differs_from_python_puts_only_the_forest_on_python(
    fresh_cache, tmp_path, monkeypatch
):
    # one level deeper than max_depth allows
    source = kernel.SOURCE.read_text(encoding="utf-8")
    depth_test = "if (depth >= max_depth ||"
    assert source.count(depth_test) == 1
    mutated = tmp_path / "too_deep.c"
    mutated.write_text(source.replace(depth_test, "if (depth > max_depth ||"), encoding="utf-8")
    monkeypatch.setattr(kernel, "SOURCE", mutated)
    reason = "compiled trees differ from models._grow_tree"
    _assert_forest_falls_back_alone(reason, tmp_path, monkeypatch)


@requires_cc
def test_a_grower_that_outgrows_its_buffers_puts_only_the_forest_on_python(
    fresh_cache, tmp_path, monkeypatch
):
    # a grower that splits past max_depth overflows a shallow tree's buffers
    def overflowing_grower(*args):
        def grow(rows, rng):
            raise RuntimeError("a tree outgrew its node or stack buffer")

        return grow

    monkeypatch.setattr(kernel._Kernel, "tree_grower", overflowing_grower)
    reason = "compiled trees differ from models._grow_tree"
    assert kernel.path() == f"python for train_forest: {reason}"
    assert kernel.load() is not None  # the SVM epoch stays compiled
    _assert_oracle_bytes()


@requires_cc
def test_svm_training_runs_no_forest_check(monkeypatch):
    monkeypatch.setattr(kernel, "_loaded", None)  # loads the session's cached build
    checks = []
    check = kernel._Kernel._check_forest
    monkeypatch.setattr(kernel._Kernel, "_check_forest", lambda k: checks.append(1) or check(k))
    data = blob_dataset(20, n_classes=3, seed=2)
    train_svm(data, TrainConfig(epochs=2))
    assert kernel.load() is not None and checks == []
    for seed in (0, 1):
        train_forest(data, TrainConfig(n_trees=2, max_depth=3, seed=seed))
    assert checks == [1]  # at the first forest only
    assert kernel.path() == "compiled" and checks == [1]


def test_the_exported_symbols_are_the_bound_ones(monkeypatch):
    # every top-level definition of a fedtab_ function that is not static
    source = kernel.SOURCE.read_text(encoding="utf-8")
    exported = re.findall(r"^(?!static\b)\w[\w ]*\b(fedtab_\w+)\(", source, re.MULTILINE)
    assert sorted(exported) == sorted(kernel.SYMBOLS)
    nm = shutil.which("nm")
    if nm is not None and kernel.load() is not None:  # the dynamic symbols of the built file
        # reopened from the cache: a fresh build is loaded under its temporary name
        monkeypatch.setattr(kernel, "_loaded", None)
        table = subprocess.run([nm, "-D", "--defined-only", kernel.load()._lib._name],
                               capture_output=True, text=True, check=True).stdout
        built = [line.split()[-1] for line in table.splitlines()]
        assert sorted(name for name in built if name.startswith("fedtab_")) == sorted(
            kernel.SYMBOLS
        )


def test_the_loaded_source_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    package_data = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"][
        "package-data"
    ]
    assert kernel.SOURCE.is_file()
    assert kernel.SOURCE.parent.name == "fedtab"
    assert kernel.SOURCE.name in package_data["fedtab"]
