"""Every random stream the grid draws takes its seed from ``dataset.derive_seed``.

``derive_seed`` is the one place that combines seeds, so the streams can be
made independent by changing one function.  These tests hold that: no other
code in ``src/fedtab`` XORs anything, and shifting ``derive_seed``'s value
for one role moves exactly the stream that role names.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import fedtab
import fedtab.experiment
from _synth import outcomes_dataset_spec, write_outcomes_csv
from fedtab.config import ExperimentConfig, OutputConfig
from fedtab.dataset import SEED_ROLES, derive_seed
from fedtab.experiment import SharedWork, run_condition_detailed
from fedtab.schemas import load_dataset

SRC = Path(fedtab.__file__).parent


def test_derive_seed_folds_its_parts_and_checks_its_role():
    assert derive_seed("deal", 5) == 5
    assert derive_seed("split", 5, 3) == derive_seed("train", 5, 3) == 6
    assert derive_seed("attack", 9, 5) == 12
    assert derive_seed("flip", 12, 0) == 12
    with pytest.raises(ValueError, match="unknown seed role 'bootstrap'"):
        derive_seed("bootstrap", 5)


def test_no_code_but_derive_seed_xors():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "derive_seed"
            for node in ast.walk(fn)
        }
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.BitXor) and id(node) not in allowed]
    assert found == []


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    path = write_outcomes_csv(tmp_path_factory.mktemp("seeds") / "outcomes.csv", n=180, seed=5)
    spec = outcomes_dataset_spec(path)
    return spec, load_dataset(spec)


CFG = ExperimentConfig(
    round_budgets=(1, 2),
    epoch_budget=1,  # one local epoch at either budget: one run per cell
    malicious_clients=(0, 2),
    output=OutputConfig(path=None),
    train_overrides={"forest": {"n_trees": 3, "max_depth": 3}},
)
CELLS = [(model, condition) for model in ("svm", "forest")
         for condition in ("fl_poisoned", "central_poisoned")]


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _streams(spec, data, monkeypatch) -> dict[str, bytes]:
    """What each random stream drew at master seed 0, by stream; undoes ``monkeypatch`` after."""
    runs = []
    run_federated = fedtab.experiment.run_federated

    def recording(*args, **kwargs):
        runs.append(run_federated(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(fedtab.experiment, "run_federated", recording)
    shared = SharedWork(data, spec.schema, CFG.n_clients, CFG.test_fraction, 0)
    streams = {}
    for p in shared.clients:
        dealt = np.sort(np.concatenate([p.train_rows, p.test_rows]))
        streams[f"deal {p.client_id}"] = _bytes(dealt)
        streams[f"split {p.client_id}"] = _bytes(p.train_rows, p.test_rows)
    for model, condition in CELLS:
        runs.clear()
        run_condition_detailed(CFG, spec, data, model, condition, 0, shared)
        ((global_model, log),) = runs
        assert sorted(log.flip_masks) == ([0] if condition.startswith("central") else [0, 2])
        streams[f"flip {condition} {model}"] = _bytes(*log.flip_masks.values())
        if model == "svm":
            streams[f"train {condition} svm"] = _bytes(global_model.weights, global_model.bias)
        else:
            streams[f"train {condition} forest"] = _bytes(*(
                array for tree in global_model.trees
                for array in (tree.feature, tree.threshold, tree.right, tree.counts)
            ))
    monkeypatch.undo()
    return streams


def _patched_streams(spec, data, monkeypatch, shift) -> dict[str, bytes]:
    """``_streams`` with every ``fedtab`` name bound to ``derive_seed`` adding ``shift(role)``."""
    def shifted(role, *parts):
        return derive_seed(role, *parts) + shift(role)

    bound = [(module, name) for module_name, module in list(sys.modules.items())
             if module_name.split(".")[0] == "fedtab"
             for name, value in list(vars(module).items()) if value is derive_seed]
    assert {module.__name__ for module, _ in bound} >= {
        "fedtab.dataset", "fedtab.experiment", "fedtab.federation"
    }
    for module, name in bound:
        monkeypatch.setattr(module, name, shifted)
    return _streams(spec, data, monkeypatch)


def _changed(base: dict[str, bytes], other: dict[str, bytes]) -> set[str]:
    assert base.keys() == other.keys()
    return {key for key in base if base[key] != other[key]}


def test_pass_through_patch_keeps_every_stream(outcomes, monkeypatch):
    base = _streams(*outcomes, monkeypatch)
    assert _changed(base, _patched_streams(*outcomes, monkeypatch, lambda role: 0)) == set()


def test_every_stream_goes_through_derive_seed(outcomes, monkeypatch):
    base = _streams(*outcomes, monkeypatch)
    moved = _patched_streams(
        *outcomes, monkeypatch, lambda role: 7919 * (1 + SEED_ROLES.index(role))
    )
    assert _changed(base, moved) == set(base)


# the streams a role's seed feeds first; the ones before it in the grid must stay put
_FIRST_MOVED = {"deal": "deal", "split": "split", "attack": "flip", "flip": "flip",
                "train": "train"}
_ORDER = ("deal", "split", "flip", "train")


@pytest.mark.parametrize("role", SEED_ROLES)
def test_each_role_moves_its_own_stream(role, outcomes, monkeypatch):
    base = _streams(*outcomes, monkeypatch)
    moved = _patched_streams(*outcomes, monkeypatch, lambda r: 7919 if r == role else 0)
    changed = _changed(base, moved)
    first = _FIRST_MOVED[role]
    assert {key for key in base if key.startswith(first)} <= changed
    upstream = _ORDER[:_ORDER.index(first)]
    assert not {key for key in changed if key.startswith(upstream)}
