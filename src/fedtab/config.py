"""Experiment configuration: dataclasses plus YAML loading and validation.

A configuration names which datasets, models, conditions, round budgets and
seeds make up a run.  Every field has a sensible default, so an empty file
(or none at all) reproduces the full benchmark grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .errors import InvalidConfigError
from .models import DEFAULT_TRAIN_CONFIGS, MODEL_KINDS, TrainConfig

CONDITIONS = ("central_clean", "central_poisoned", "fl_clean", "fl_poisoned")
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


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[str, ...] = ("A", "B")
    data_dir: str = "data"
    models: tuple[str, ...] = MODEL_KINDS
    conditions: tuple[str, ...] = CONDITIONS
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
        for name, kinds in _FIELD_TYPES.items():
            values = getattr(self, name)
            if isinstance(kinds, list) and len(set(values)) != len(values):
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
            if c not in CONDITIONS:
                raise InvalidConfigError(f"unknown condition {c!r}; expected one of {CONDITIONS}")
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
        if self.epoch_budget < 1:
            raise InvalidConfigError(f"epoch_budget must be at least 1, got {self.epoch_budget}")
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
        base = DEFAULT_TRAIN_CONFIGS[model]
        unknown = sorted(set(overrides) - set(_TRAIN_FIELD_TYPES))
        if unknown:
            raise InvalidConfigError(f"unknown train_overrides fields for {model!r}: {unknown}")
        derived = sorted(set(overrides) & {"epochs", "seed"})
        if derived:
            raise InvalidConfigError(
                f"train_overrides.{model} cannot set {derived}: every run derives epochs "
                f"from epoch_budget (and round_budgets) and seeds from seeds"
            )
        for name, value in overrides.items():
            _typed(value, _TRAIN_FIELD_TYPES[name], f"train_overrides.{model}.{name}")
        merged = replace(base, **dict(overrides))
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


# a one-element list means "a list of that type"
_FIELD_TYPES: dict[str, Any] = {
    **dict.fromkeys(("datasets", "models", "conditions"), [str]),
    **dict.fromkeys(("round_budgets", "seeds", "malicious_clients"), [int]),
    **dict.fromkeys(("data_dir", "fl_average"), str),
    **dict.fromkeys(("n_clients", "epoch_budget", "attack_seed"), int),
    **dict.fromkeys(("test_fraction", "flip_fraction"), (int, float)),
}
_TRAIN_FIELD_TYPES = {name: (int, float) if hint is float else hint
                      for name, hint in get_type_hints(TrainConfig).items()}


def _typed(value, kinds, where: str):
    """Return value (lists as tuples) if it has the given type; a bool is never a number."""
    if isinstance(kinds, list):
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{where} must be a list")
        return tuple(_typed(v, kinds[0], f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvalidConfigError(f"{where} has wrong type {type(value).__name__}")
    return value


def config_from_dict(payload: Mapping[str, Any] | None, where: str = "config") -> ExperimentConfig:
    """Build a validated ExperimentConfig; unknown keys are hard errors."""
    data = dict(payload or {})
    kwargs: dict[str, Any] = {}
    for name, kinds in _FIELD_TYPES.items():
        if name in data:
            kwargs[name] = _typed(data.pop(name), kinds, f"{where}.{name}")
    if "train_overrides" in data:
        overrides = data.pop("train_overrides")
        if not isinstance(overrides, dict):
            raise InvalidConfigError(f"{where}.train_overrides must be a mapping")
        kwargs["train_overrides"] = overrides
    if "output" in data:
        out = data.pop("output")
        if not isinstance(out, dict):
            raise InvalidConfigError(f"{where}.output must be a mapping")
        known = {"path", "format", "round_log"}
        unknown = sorted(set(out) - known)
        if unknown:
            raise InvalidConfigError(f"{where}.output has unknown fields: {unknown}")
        for name, value in out.items():
            if value is not None:
                _typed(value, str, f"{where}.output.{name}")
        kwargs["output"] = OutputConfig(**out)
    if data:
        raise InvalidConfigError(f"{where} has unknown fields: {sorted(data)}")
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML experiment configuration file."""
    import yaml  # only file configs need PyYAML; keep it off `import fedtab`

    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}") from None
    try:
        payload = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise InvalidConfigError(f"{path}: invalid YAML: {err}") from None
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise InvalidConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(payload, where=str(path))
