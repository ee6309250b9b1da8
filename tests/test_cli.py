"""Command line behavior: subcommands, overrides, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedtab
from _oracles import parse_report
from _synth import write_dataset_a_like, write_dataset_b_like
from fedtab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, _run_config, build_parser, main
from fedtab.config import ExperimentConfig
from fedtab.errors import InvalidConfigError


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    write_dataset_a_like(d / "student-mat.csv", n=150, seed=41)
    return d


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("datasets: [A]\nmodels: [logistic]\nseeds: [1]\n", encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    assert "OK" in capsys.readouterr().out


_HUGE = "9" * 400  # an integer beyond float range


def test_validate_rejects_bad_configs(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["validate", "--config", str(missing)]) == EXIT_CONFIG
    bad_field = tmp_path / "bad.yaml"
    bad_field.write_text("modells: [logistic]\n", encoding="utf-8")
    assert main(["validate", "--config", str(bad_field)]) == EXIT_CONFIG
    bad_yaml = tmp_path / "broken.yaml"
    bad_yaml.write_text("models: [unclosed\n", encoding="utf-8")
    assert main(["validate", "--config", str(bad_yaml)]) == EXIT_CONFIG
    bad_values = [
        "n_clients: true\n",
        "seeds: [0, 1.5]\n",
        "round_budgets: [2, 4.5]\n",
        "malicious_clients: [true]\n",
        "train_overrides: {svm: {learning_rate: fast}}\n",
        "output: {path: 5}\n",
        "seeds: [-1]\n",
        "attack_seed: -1\n",
        "datasets: [C]\n",
        "datasets: [B, B]\n",
        "models: [svm, svm]\n",
        "conditions: [fl_clean, fl_clean]\n",
        "seeds: [0, 0]\n",
        "malicious_clients: [0, 0]\n",
        "round_budgets: [2, 2]\n",
        "output: {path: out.csv, round_log: out.csv}\n",
        "output: {path: out.csv, round_log: ./sub/../out.csv}\n",
        "train_overrides: {logistic: {learning_rate: .nan}}\n",
        "train_overrides: {logistic: {learning_rate: .inf}}\n",
        "train_overrides: {svm: {l2: .nan}}\n",
        "train_overrides: {logistic: {l2: .inf}}\n",
        f"train_overrides: {{logistic: {{learning_rate: {_HUGE}}}}}\n",  # beyond float range
        f"train_overrides: {{svm: {{l2: {_HUGE}}}}}\n",
        f"epoch_budget: {_HUGE}\n",  # epochs_for_budget divides it
        f"n_clients: {'9' * 5000}\n",  # past int()'s 4300-digit limit
    ]
    for i, text in enumerate(bad_values):
        bad_value = tmp_path / f"value{i}.yaml"
        bad_value.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(bad_value)]) == EXIT_CONFIG, text


@pytest.mark.parametrize("argv", [
    ["run", "--clients", "abc"],
    ["run", "--dataset", "C"],
    ["run", "--seed", "x"],
    ["run", "--bogus"],
    ["validate"],
], ids=["bad-int", "bad-choice", "bad-seed", "unknown-flag", "missing-required"])
def test_usage_error_is_a_config_error(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == EXIT_CONFIG  # argparse itself exits 2, the data-error code
    err = capsys.readouterr().err
    assert err.startswith("usage: fedtab") and "error: " in err


def test_run_unknown_condition_names_the_choices(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["run", "--condition", "bogus"])
    assert caught.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        "fedtab run: error: argument --condition: invalid choice: 'bogus' (choose from "
        "'central_clean', 'central_poisoned', 'fl_clean', 'fl_poisoned')\n"
    )


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == EXIT_OK
    assert capsys.readouterr().out


def test_run_executes_grid_and_writes_output(tmp_path, data_dir, capsys):
    out = tmp_path / "results.csv"
    code = main([
        "run",
        "--dataset", "A",
        "--model", "logistic",
        "--condition", "central_clean",
        "--condition", "fl_clean",
        "--rounds", "1,2",
        "--seed", "2",
        "--data-dir", str(data_dir),
        "--output", str(out),
        "--quiet",
    ])
    assert code == EXIT_OK
    table = parse_report(out.read_text(encoding="utf-8"))
    assert {r.metric for r in table.rows} == {"Accuracy", "Recall", "F1-Score", "AUCROC"}
    printed = capsys.readouterr().out
    assert "Standard ML" in printed  # human summary on stdout


def test_run_config_file_with_overrides(tmp_path, data_dir):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "\n".join([
            "datasets: [A]",
            "models: [logistic]",
            "conditions: [central_clean]",
            "round_budgets: [1]",
            "epoch_budget: 40",
            f"data_dir: {data_dir}",
        ]) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "r.json"
    code = main([
        "run", "--config", str(cfg), "--output", str(out), "--format", "structured", "--quiet",
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["rows"], "structured output should hold rows"


def test_run_missing_data_is_a_data_error(tmp_path, capsys):
    code = main([
        "run", "--dataset", "A", "--model", "logistic", "--condition", "central_clean",
        "--data-dir", str(tmp_path / "empty"), "--quiet",
    ])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["non-utf8 byte", "field over the csv limit"])
def test_run_unreadable_data_is_a_data_error(tmp_path, capsys, fault):
    path = write_dataset_b_like(tmp_path / "student-dropout.csv", n=40, seed=3)
    header, first, *rest = path.read_bytes().split(b"\n")
    if fault == "non-utf8 byte":
        first = first.replace(b";", b"\xff;", 1)
    else:
        first = b"x" * 140_000 + first[first.index(b";"):]
    path.write_bytes(b"\n".join([header, first, *rest]))
    code = main([
        "run", "--dataset", "B", "--model", "logistic", "--condition", "central_clean",
        "--data-dir", str(tmp_path), "--quiet",
    ])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("condition", ["central_clean", "fl_clean"])
def test_run_diverging_logistic_training_is_a_config_error(tmp_path, capsys, condition):
    write_dataset_b_like(tmp_path / "student-dropout.csv", n=60, seed=3)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("train_overrides: {logistic: {learning_rate: 1.0e+300}}\n", encoding="utf-8")
    code = main([
        "run", "--config", str(cfg), "--dataset", "B", "--model", "logistic",
        "--condition", condition, "--rounds", "1", "--data-dir", str(tmp_path), "--quiet",
    ])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        "configuration error: logistic training diverged: its parameters are not finite at "
        "learning_rate 1e+300\n"
    )


def test_run_test_rows_of_one_class_are_a_data_error(tmp_path, capsys):
    # one row passes: the stratified split keeps it for training, so no
    # test row does and AUC is undefined
    path = write_dataset_a_like(tmp_path / "student-mat.csv", n=200, seed=19)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.rsplit(";", 1) for row in rows]
    grades = ["12"] + [str(min(int(grade), 9)) for _, grade in cells[1:]]
    path.write_text("\n".join([header, *(f"{head};{grade}" for (head, _), grade
                                         in zip(cells, grades))]) + "\n", encoding="utf-8")
    code = main([
        "run", "--dataset", "A", "--model", "logistic", "--condition", "central_clean",
        "--data-dir", str(tmp_path),
    ])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (
        "data error: the test rows hold a single class (class counts [39, 0]); "
        "AUC is undefined\n"
    )  # no progress line: no cell started


@pytest.mark.parametrize("fault", ["a directory", "not UTF-8"])
def test_validate_unreadable_config_is_a_config_error(tmp_path, capsys, fault):
    cfg = tmp_path / "cfg.yaml"
    if fault == "a directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"seeds: [1]\n# \xff\n")
    assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(cfg) in err


@pytest.mark.parametrize("fault", ["table is a directory", "data dir is a file"])
def test_run_unreadable_table_path_is_a_data_error(tmp_path, capsys, fault):
    if fault == "table is a directory":
        data_dir = tmp_path
        (data_dir / "student-mat.csv").mkdir()
    else:
        data_dir = tmp_path / "data"
        data_dir.write_text("not a directory\n", encoding="utf-8")
    code = main([
        "run", "--dataset", "A", "--model", "logistic", "--condition", "central_clean",
        "--data-dir", str(data_dir), "--quiet",
    ])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {data_dir / 'student-mat.csv'}: ")


def test_fetch_to_a_file_is_a_config_error(tmp_path, monkeypatch, capsys):
    from fedtab import fetch

    def no_download(url, timeout):
        raise AssertionError("downloaded before checking the destination")

    monkeypatch.setattr(fetch, "_download", no_download)
    dest = tmp_path / "data"
    dest.write_text("a file\n", encoding="utf-8")
    assert main(["fetch-data", "--dest", str(dest)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: fetch destination {dest}")


def test_run_client_too_small_to_split_is_a_config_error(tmp_path, capsys):
    write_dataset_a_like(tmp_path / "student-mat.csv", n=395, seed=41)
    out = tmp_path / "out.csv"
    code = main([
        "run", "--dataset", "A", "--clients", "200", "--model", "logistic",
        "--condition", "fl_clean", "--data-dir", str(tmp_path), "--output", str(out), "--quiet",
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: client 0 of n_clients 200 gets 2 rows")
    assert "test_fraction 0.2" in err
    assert not out.exists()


def test_run_checks_every_table_split_before_any_cell(tmp_path, capsys):
    # 60 clients split B's 180 rows 3 apiece, but give clients 30-59 of A's 150 rows
    # 2 each, too few for a test row: B's cells would run first
    write_dataset_a_like(tmp_path / "student-mat.csv", n=150, seed=41)
    write_dataset_b_like(tmp_path / "student-dropout.csv", n=180, seed=43)
    out, log = tmp_path / "out.csv", tmp_path / "rounds.jsonl"
    code = main([
        "run", "--dataset", "B", "--dataset", "A", "--clients", "60", "--model", "logistic",
        "--data-dir", str(tmp_path), "--output", str(out), "--round-log", str(log),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: client 30 of n_clients 60 gets 2 rows")
    assert "s] " not in err  # no cell started
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("key", ["path", "round_log"])
@pytest.mark.parametrize("target", ["existing directory", "missing parent"])
def test_validate_rejects_an_output_path_run_rejects(tmp_path, capsys, key, target):
    path = tmp_path if target == "existing directory" else tmp_path / "missing" / "r.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"output: {{{key}: {json.dumps(str(path))}}}\n", encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert captured.err == (
        f"configuration error: output.{key} {str(path)!r} is not a file in an existing directory\n"
    )


@pytest.mark.parametrize("key", ["path", "round_log"])
@pytest.mark.parametrize("target", ["new file", "existing file", "bare name"])
def test_validate_accepts_an_output_path_run_accepts(tmp_path, monkeypatch, capsys, key, target):
    # the shared check rejects directories and missing parents, nothing else;
    # a bare name's parent is the working directory
    monkeypatch.chdir(tmp_path)
    path = "r.csv" if target == "bare name" else str(tmp_path / "r.csv")
    if target == "existing file":
        (tmp_path / "r.csv").write_text("old\n", encoding="utf-8")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"output: {{{key}: {json.dumps(path)}}}\n", encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == f"{cfg}: OK\n"
    # validate reads the file system but writes nothing
    want = "old\n" if target == "existing file" else None
    out = tmp_path / "r.csv"
    assert (out.read_text(encoding="utf-8") if out.exists() else None) == want


@pytest.mark.parametrize("flag", ["--output", "--round-log"])
@pytest.mark.parametrize("target", ["existing directory", "missing parent"])
def test_run_bad_output_path_is_a_config_error_before_any_cell(
    tmp_path, data_dir, capsys, flag, target
):
    path = tmp_path if target == "existing directory" else tmp_path / "missing" / "r.csv"
    code = main([
        "run", "--dataset", "A", "--model", "logistic", "--condition", "central_clean",
        "--data-dir", str(data_dir), flag, str(path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{str(path)!r} is not a file in an existing directory" in err
    assert "s] " not in err  # no cell started
    assert not (tmp_path / "missing").exists()


def test_run_bad_rounds_is_a_config_error(data_dir, capsys):
    code = main([
        "run", "--rounds", "two,four", "--data-dir", str(data_dir), "--quiet",
    ])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", [
    ["--dataset", "A", "--dataset", "A"],
    ["--model", "logistic", "--model", "logistic"],
    ["--condition", "fl_clean", "--condition", "fl_clean"],
    ["--seed", "0", "--seed", "0"],
], ids=["dataset", "model", "condition", "seed"])
def test_run_repeated_flag_is_a_config_error(tmp_path, data_dir, capsys, repeat):
    out = tmp_path / "out.csv"
    code = main(["run", *repeat, "--data-dir", str(data_dir), "--output", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "must be unique" in err
    assert "s] " not in err  # no cell started: progress lines read "[  0.1s] cell"
    assert not out.exists()


def test_run_bad_svm_step_is_a_config_error_before_any_cell(tmp_path, data_dir, capsys):
    # the logistic cells would run first; learning_rate * l2 >= 1 is caught before them
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "models: [logistic, svm]\n"
        "train_overrides: {svm: {learning_rate: 20.0, l2: 0.05}}\n",
        encoding="utf-8",
    )
    out, log = tmp_path / "out.csv", tmp_path / "rounds.jsonl"
    code = main([
        "run", "--config", str(cfg), "--data-dir", str(data_dir),
        "--output", str(out), "--round-log", str(log),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "learning_rate * l2" in err
    assert "s] " not in err  # no cell started
    assert not out.exists() and not log.exists()


def test_run_float_field_beyond_float_range_is_a_config_error(tmp_path, data_dir, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"train_overrides: {{logistic: {{learning_rate: {_HUGE}}}}}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main([
        "run", "--config", str(cfg), "--model", "logistic", "--data-dir", str(data_dir),
        "--output", str(out),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "learning_rate is an integer beyond float range" in err
    assert "s] " not in err  # no cell started
    assert not out.exists()


def _flag_config(tmp_path, *argv, yaml=None):
    """The ``ExperimentConfig`` that ``fedtab run`` builds from these flags and file text."""
    if yaml is not None:
        (tmp_path / "cfg.yaml").write_text(yaml, encoding="utf-8")
        argv = ("--config", str(tmp_path / "cfg.yaml"), *argv)
    return _run_config(build_parser().parse_args(["run", *argv]))


@pytest.mark.parametrize("flag, value, yaml", [
    ("--dataset", "A", "datasets: [A]"),
    ("--model", "svm", "models: [svm]"),
    ("--condition", "fl_clean", "conditions: [fl_clean]"),
    ("--seed", "3", "seeds: [3]"),
    ("--rounds", "2,4", "round_budgets: [2, 4]"),
    ("--clients", "2", "n_clients: 2"),
    ("--flip-fraction", "0.25", "flip_fraction: 0.25"),
    ("--data-dir", "tables", "data_dir: tables"),
    ("--output", "r.csv", "output: {path: r.csv}"),
    ("--format", "structured", "output: {format: structured}"),
    ("--round-log", "r.jsonl", "output: {round_log: r.jsonl}"),
])
def test_run_flag_reads_as_its_yaml_key(tmp_path, flag, value, yaml):
    by_flag = _flag_config(tmp_path, flag, value)
    assert by_flag == _flag_config(tmp_path, yaml=yaml + "\n")
    assert by_flag != ExperimentConfig()


def test_run_flag_replaces_only_its_own_key(tmp_path):
    cfg = _flag_config(tmp_path, "--clients", "2", yaml="n_clients: 5\nseeds: [4]\n")
    assert (cfg.n_clients, cfg.seeds) == (2, (4,))
    cfg = _flag_config(
        tmp_path, "--output", "new.csv", yaml="output: {path: old.csv, round_log: r.jsonl}\n"
    )
    assert (cfg.output.path, cfg.output.round_log) == ("new.csv", "r.jsonl")
    # the flag's value meets the file's other keys in one read
    with pytest.raises(InvalidConfigError, match="outside"):
        _flag_config(tmp_path, "--clients", "2", yaml="malicious_clients: [2]\n")


def test_run_round_log_export(tmp_path, data_dir):
    log_path = tmp_path / "rounds.jsonl"
    code = main([
        "run", "--dataset", "A", "--model", "logistic", "--condition", "fl_poisoned",
        "--rounds", "2", "--flip-fraction", "0.5", "--data-dir", str(data_dir),
        "--round-log", str(log_path), "--quiet",
    ])
    assert code == EXIT_OK
    lines = [json.loads(ln) for ln in log_path.read_text(encoding="utf-8").splitlines()]
    assert any(ln["type"] == "flips" for ln in lines)
    assert sum(ln["type"] == "round" for ln in lines) == 2


@pytest.mark.parametrize(
    "module, unloaded",
    [
        ("fedtab", ("yaml", "fedtab.kernel", "numpy.random")),
        ("fedtab.cli", ("fedtab.fetch", "urllib.request", "fedtab.kernel", "numpy.random")),
    ],
    ids=["package-without-yaml", "cli-without-fetch"],
)
def test_import_leaves_optional_modules_unloaded(module, unloaded):
    # start-up cost: PyYAML is for config files only, the download code for
    # fetch-data only, the compiled kernels and numpy.random for training
    # only; a fresh interpreter shows what an import really loads
    src = str(Path(fedtab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = f"import sys, {module}; print(sorted(m for m in {unloaded!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
