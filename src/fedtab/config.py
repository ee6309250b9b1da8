"""Experiment configuration: dataclasses plus YAML loading and validation.

A configuration names which datasets, models, conditions, round budgets and
seeds make up a run.  Every field has a sensible default, so an empty file
(or none at all) reproduces the full benchmark grid.  A condition's name is
a key of ``CONDITIONS``, the one table that says what each condition runs.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .errors import InvalidConfigError
from .models import MODEL_KINDS, TRAIN_SETTINGS, TrainConfig


@dataclass(frozen=True)
class Condition:
    """What one grid condition runs.

    ``pooled``: one client holding the pooled partition, for one round,
    with no round log (standard ML); otherwise the clients, at every round
    budget.  ``poisoned``: the malicious clients flip their training labels
    before round one; a pooled run's one client is malicious, a federated
    run's are ``malicious_clients``.
    """

    pooled: bool
    poisoned: bool


# condition name -> Condition; the default ``conditions``, in this order (the round log's)
CONDITIONS: dict[str, Condition] = {
    "central_clean": Condition(pooled=True, poisoned=False),
    "central_poisoned": Condition(pooled=True, poisoned=True),
    "fl_clean": Condition(pooled=False, poisoned=False),
    "fl_poisoned": Condition(pooled=False, poisoned=True),
}


def condition_of(name: str) -> Condition:
    """The ``Condition`` that ``CONDITIONS`` registers as ``name``."""
    if name not in CONDITIONS:
        raise InvalidConfigError(f"unknown condition {name!r}; expected one of {tuple(CONDITIONS)}")
    return CONDITIONS[name]


OUTPUT_FORMATS = ("delimited", "structured", "human")
FL_AVERAGING = ("final", "per_round")


@dataclass(frozen=True)
class OutputConfig:
    path: str | None = None
    format: str = "delimited"
    round_log: str | None = None

    def __post_init__(self) -> None:
        if self.format not in OUTPUT_FORMATS:
            raise InvalidConfigError(
                f"unknown output format {self.format!r}; expected one of {OUTPUT_FORMATS}"
            )
        if self.path is not None and self.round_log is not None and (
            Path(self.path).resolve() == Path(self.round_log).resolve()
        ):
            raise InvalidConfigError(f"output.round_log names the report file {self.path!r}")

    def check_paths(self) -> None:
        """Reject an output path that names a directory or a missing parent directory.

        ``run`` and ``validate`` both call this before any table is read.  It
        reads the file system, so building the config does not call it.
        """
        for name in ("path", "round_log"):
            path = getattr(self, name)
            if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
                raise InvalidConfigError(
                    f"output.{name} {path!r} is not a file in an existing directory"
                )


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[str, ...] = ("A", "B")
    data_dir: str = "data"
    models: tuple[str, ...] = MODEL_KINDS
    conditions: tuple[str, ...] = tuple(CONDITIONS)
    round_budgets: tuple[int, ...] = (2, 4, 6, 8, 10)
    n_clients: int = 3
    test_fraction: float = 0.2
    epoch_budget: int = 300
    flip_fraction: float = 0.5
    malicious_clients: tuple[int, ...] = (0,)
    attack_seed: int = 0
    seeds: tuple[int, ...] = (0,)
    fl_average: str = "final"
    train_overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    output: OutputConfig = OutputConfig()

    def __post_init__(self) -> None:
        for name, hint in _HINTS[ExperimentConfig].items():
            values = getattr(self, name)
            if get_origin(hint) is tuple and len(set(values)) != len(values):
                raise InvalidConfigError(f"{name} must be unique, got {list(values)}")
        if not self.datasets:
            raise InvalidConfigError("at least one dataset is required")
        if not self.models:
            raise InvalidConfigError("at least one model is required")
        for m in self.models:
            if m not in MODEL_KINDS:
                raise InvalidConfigError(f"unknown model {m!r}; expected one of {MODEL_KINDS}")
        if not self.conditions:
            raise InvalidConfigError("at least one condition is required")
        for c in self.conditions:
            condition_of(c)
        if not self.round_budgets or any(r < 1 for r in self.round_budgets):
            raise InvalidConfigError("round_budgets must be non-empty positive integers")
        if not self.seeds:
            raise InvalidConfigError("at least one seed is required")
        if any(s < 0 for s in self.seeds) or self.attack_seed < 0:
            raise InvalidConfigError(
                f"seeds and attack_seed must be non-negative, got seeds {list(self.seeds)}, "
                f"attack_seed {self.attack_seed}"
            )
        if self.n_clients < 1:
            raise InvalidConfigError(f"n_clients must be at least 1, got {self.n_clients}")
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if not 1 <= self.epoch_budget <= sys.float_info.max:  # epochs_for_budget divides it
            raise InvalidConfigError(
                f"epoch_budget must be at least 1 and within float range, got {self.epoch_budget}"
            )
        if not 0.0 <= self.flip_fraction <= 1.0:
            raise InvalidConfigError(f"flip_fraction must lie in [0, 1], got {self.flip_fraction}")
        for c in self.malicious_clients:
            if not 0 <= c < self.n_clients:
                raise InvalidConfigError(f"malicious client {c} outside [0, {self.n_clients})")
        if self.fl_average not in FL_AVERAGING:
            raise InvalidConfigError(
                f"unknown fl_average {self.fl_average!r}; expected one of {FL_AVERAGING}"
            )
        for model, overrides in self.train_overrides.items():
            if model not in MODEL_KINDS:
                raise InvalidConfigError(f"train_overrides for unknown model {model!r}")
            if not isinstance(overrides, Mapping):
                raise InvalidConfigError(f"train_overrides for {model!r} must be a mapping")
            self._merged_train_config(model, overrides)  # raises on bad fields

    @staticmethod
    def _merged_train_config(model: str, overrides: Mapping[str, Any]) -> TrainConfig:
        derived = sorted(set(overrides) & {"epochs", "seed"})
        if derived:
            raise InvalidConfigError(
                f"train_overrides.{model} cannot set {derived}: every run derives epochs "
                f"from epoch_budget (and round_budgets) and seeds from seeds"
            )
        settings = TRAIN_SETTINGS[model]
        ignored = sorted(set(overrides) - set(settings), key=str)
        if ignored:
            raise InvalidConfigError(
                f"train_overrides.{model} cannot set {ignored}: the {model} model reads "
                f"only {list(settings)}"
            )
        merged = _read(TrainConfig, {**settings, **overrides}, f"train_overrides.{model}")
        # train_svm's first epoch decays weights by 1 - learning_rate * l2
        if model == "svm" and 1.0 - merged.learning_rate * merged.l2 <= 0.0:
            raise InvalidConfigError(
                f"train_overrides.svm: learning_rate * l2 must be below 1, got "
                f"{merged.learning_rate} * {merged.l2}"
            )
        return merged

    def train_config(self, model: str) -> TrainConfig:
        """Per-model hyperparameters: package defaults plus any overrides."""
        overrides = self.train_overrides.get(model, {})
        return self._merged_train_config(model, overrides)


_HINTS = {cls: get_type_hints(cls) for cls in (OutputConfig, ExperimentConfig, TrainConfig)}


def _read(cls, payload: Any, where: str):
    """A ``cls`` from a mapping of its fields, each typed by ``cls``'s own annotations.

    Unknown keys are errors; a tuple field takes a list, a float field any
    real number within float range (stored as a float), a nested config a
    mapping; a bool is never a number.
    """
    if not isinstance(payload, Mapping):
        raise InvalidConfigError(f"{where} must be a mapping")
    hints = _HINTS[cls]
    unknown = sorted(set(payload) - set(hints), key=str)
    if unknown:
        raise InvalidConfigError(f"{where} has unknown fields: {unknown}")
    return cls(**{name: _value(hints[name], value, f"{where}.{name}")
                  for name, value in payload.items()})


def _value(hint: Any, value: Any, where: str) -> Any:
    if hint in _HINTS:
        return _read(hint, value, where)
    args = get_args(hint)
    if type(None) in args:  # an optional field
        return None if value is None else _value(args[0], value, where)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{where} must be a list")
        return tuple(_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if get_origin(hint) is Mapping:  # train_overrides; _merged_train_config reads each model's
        if not isinstance(value, Mapping):
            raise InvalidConfigError(f"{where} must be a mapping")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise InvalidConfigError(f"{where} has wrong type {type(value).__name__}")
    if hint is float:
        try:
            return float(value)
        except OverflowError:
            raise InvalidConfigError(f"{where} is an integer beyond float range") from None
    return value


def config_from_dict(payload: Mapping[str, Any] | None, where: str = "config") -> ExperimentConfig:
    """Read a validated ExperimentConfig from the mapping of a YAML file's fields.

    The fields' types come from the dataclasses' annotations; unknown keys,
    a value of the wrong type and an integer beyond float range in a float
    field are ``InvalidConfigError``s, and so is every failed constraint.
    """
    return _read(ExperimentConfig, payload or {}, where)


def read_config_file(path: str | Path) -> dict[str, Any]:
    """The mapping a YAML configuration file holds; an empty file holds ``{}``."""
    import yaml  # only file configs need PyYAML; keep it off `import fedtab`

    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}") from None
    except OSError as err:  # a directory, no permission
        raise InvalidConfigError(f"cannot read config file {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise InvalidConfigError(f"{path}: not UTF-8 text ({err.reason})") from None
    try:
        payload = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as err:  # ValueError: an integer of over 4300 digits
        raise InvalidConfigError(f"{path}: invalid YAML: {err}") from None
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise InvalidConfigError(f"{path}: top level must be a mapping")
    return payload


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML experiment configuration file: its mapping through ``config_from_dict``."""
    return config_from_dict(read_config_file(path), where=str(path))
