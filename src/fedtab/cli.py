"""Command line interface.

Subcommands:

- run: execute the experiment grid and write the results table,
- validate: check a configuration file without running anything,
- fetch-data: download and verify the benchmark tables.

Exit codes: 0 success, 1 configuration error (a bad flag too), 2 data
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import NoReturn

from . import __version__
from .config import (
    CONDITIONS,
    OUTPUT_FORMATS,
    ExperimentConfig,
    config_from_dict,
    load_config,
    read_config_file,
)
from .errors import ConfigError, DataError, FedtabError, InvalidConfigError
from .experiment import emit_report, run_suite
from .models import MODEL_KINDS
from .schemas import DATASET_KEYS, builtin_dataset

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors exit 1, not argparse's 2.

    A bad flag is a configuration error; exit 2 means a data error.  The
    subcommand parsers are built from this class too.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedtab",
        description="Federated vs centralized tabular classification benchmark",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment grid")
    run.add_argument("--config", help="YAML configuration file (defaults apply without one)")
    run.add_argument("--dataset", action="append", choices=DATASET_KEYS,
                     help="restrict to one dataset (repeatable)")
    run.add_argument("--model", action="append", choices=MODEL_KINDS,
                     help="restrict to one model (repeatable)")
    run.add_argument("--condition", action="append", choices=CONDITIONS,
                     help="restrict to one condition (repeatable)")
    run.add_argument("--seed", action="append", type=int, help="master seed (repeatable)")
    run.add_argument("--rounds", help="comma-separated round budgets, e.g. 2,4,6,8,10")
    run.add_argument("--clients", type=int, help="number of federated clients")
    run.add_argument("--flip-fraction", type=float, help="poisoned share of training labels")
    run.add_argument("--data-dir", help="directory holding the dataset files")
    run.add_argument("--output", help="where to write the results table")
    run.add_argument("--format", choices=OUTPUT_FORMATS, help="results table format")
    run.add_argument("--round-log", help="where to write the per-round JSONL log")
    run.add_argument("--quiet", action="store_true", help="suppress progress output")

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("--config", required=True, help="YAML configuration file")

    fetch = sub.add_parser("fetch-data", help="download the benchmark tables")
    fetch.add_argument("--dest", default="data", help="target directory (default: data)")
    fetch.add_argument("--dataset", action="append", choices=DATASET_KEYS,
                       help="fetch only one table (repeatable)")
    fetch.add_argument("--sha256-a", help="pin the sha256 of the dataset A file")
    fetch.add_argument("--sha256-b", help="pin the sha256 of the dataset B file")
    return parser


# each ``run`` flag's config key, then each output flag's key within ``output``
_FLAG_KEYS = {"dataset": "datasets", "model": "models", "condition": "conditions",
              "seed": "seeds", "clients": "n_clients", "flip_fraction": "flip_fraction",
              "data_dir": "data_dir"}
_OUTPUT_FLAG_KEYS = {"output": "path", "format": "format", "round_log": "round_log"}


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """The file's mapping, each given flag replacing its key, read once."""
    payload = read_config_file(args.config) if args.config else {}
    if args.rounds is not None:
        try:
            payload["round_budgets"] = [int(r) for r in args.rounds.split(",")]
        except ValueError:
            raise ConfigError(f"--rounds must be comma-separated integers, got {args.rounds!r}")
    payload.update((key, getattr(args, flag)) for flag, key in _FLAG_KEYS.items()
                   if getattr(args, flag) is not None)
    output = {key: getattr(args, flag) for flag, key in _OUTPUT_FLAG_KEYS.items()
              if getattr(args, flag) is not None}
    if output and isinstance(payload.get("output", {}), dict):  # else the read says what is wrong
        payload["output"] = {**payload.get("output", {}), **output}
    return config_from_dict(payload, where=args.config or "config")


def _check_config_kept(cfg: ExperimentConfig, config: str | None) -> None:
    """Raise InvalidConfigError when an output path resolves to the config file ``config``.

    Writing the report or round log there would overwrite the run's own
    config; ``run`` and ``validate`` both check it before any table is read.
    """
    if config is None:
        return
    for name in ("path", "round_log"):
        path = getattr(cfg.output, name)
        if path is not None and Path(path).resolve() == Path(config).resolve():
            raise InvalidConfigError(f"output.{name} {path!r} is the config file {config!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    _check_config_kept(cfg, args.config)

    progress = None
    if not args.quiet:
        start = time.monotonic()

        def progress(cell: str) -> None:
            print(f"[{time.monotonic() - start:7.1f}s] {cell}", file=sys.stderr)

    rows = run_suite(cfg, progress=progress)
    print(emit_report(rows, "human"), end="")
    if cfg.output.path is not None:
        print(f"results written to {cfg.output.path}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _check_config_kept(cfg, args.config)
    # as run does: an unknown key raises, then the output paths are checked against the tables
    cfg.output.check_paths([builtin_dataset(key, cfg.data_dir).path for key in cfg.datasets])
    print(f"{args.config}: OK")
    return EXIT_OK


def _cmd_fetch(args: argparse.Namespace) -> int:
    from .fetch import fetch_all  # urllib, zipfile, hashlib: only fetch-data needs them

    keys = tuple(dict.fromkeys(args.dataset)) if args.dataset else DATASET_KEYS
    pins = {}
    if args.sha256_a:
        pins["A"] = args.sha256_a
    if args.sha256_b:
        pins["B"] = args.sha256_b
    fetch_all(args.dest, keys, pins)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_fetch(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except FedtabError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:  # noqa: BLE001 - map any library failure to exit 3
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
