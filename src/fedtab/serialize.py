"""JSON round-trip serialization for trained models.

Floats are stored with full repr precision, so save followed by load
reproduces parameters bit for bit.  Format 2 stores each forest tree as its
five node arrays in depth-first preorder (see ``models.Tree``); format 1's
nested trees are not read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FedtabError, InvalidConfigError, ShapeMismatchError
from .models import Forest, LinearModel, Model, Tree

FORMAT_VERSION = 2
_TREE_DTYPES = dict(
    feature=np.int64, threshold=np.float64, left=np.int64, right=np.int64, counts=np.int64
)


class ModelFormatError(FedtabError):
    """The model file is malformed or from an unknown format version."""


def _tree_from_dict(payload: dict, n_classes: int, n_features: int) -> Tree:
    """Rebuild a stored tree, rejecting any that could hang or mis-index the walk."""
    try:
        arrays = {name: np.asarray(payload[name], dtype=t) for name, t in _TREE_DTYPES.items()}
    except (TypeError, ValueError, OverflowError) as err:
        raise ModelFormatError(f"malformed tree arrays: {err}") from None
    tree = Tree(**arrays)
    n = tree.feature.size
    shapes = [a.shape for a in arrays.values()]
    if n == 0 or shapes != [(n,)] * 4 + [(n, n_classes)]:
        raise ModelFormatError(f"tree array shapes {shapes} do not fit {n_classes} classes")
    if np.any(tree.feature < -1) or np.any(tree.feature >= n_features):
        raise ModelFormatError(f"split feature outside [0, {n_features})")
    if np.any(tree.counts < 0) or np.any(tree.counts.sum(axis=1) == 0):
        raise ModelFormatError("a node's class counts must be non-negative with a positive total")
    split = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[split], tree.right[split]):
        if np.any(child <= split) or np.any(child >= n):
            raise ModelFormatError("a child index must lie after its parent and inside the tree")
    return tree


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "format_version": FORMAT_VERSION,
            "model": "linear",
            "kind": model.kind,
            "n_classes": model.n_classes,
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
        }
    if isinstance(model, Forest):
        return {
            "format_version": FORMAT_VERSION,
            "model": "forest",
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "trees": [{k: v.tolist() for k, v in vars(t).items()} for t in model.trees],
        }
    raise ModelFormatError(f"cannot serialize {type(model).__name__}")


def model_from_dict(payload: dict) -> Model:
    if not isinstance(payload, dict):
        raise ModelFormatError("model payload must be an object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {payload.get('format_version')!r}")
    family = payload.get("model")
    try:
        if family == "linear":
            return LinearModel(
                weights=np.asarray(payload["weights"], dtype=np.float64),
                bias=np.asarray(payload["bias"], dtype=np.float64),
                kind=payload["kind"],
                n_classes=int(payload["n_classes"]),
            )
        if family == "forest":
            n_classes = int(payload["n_classes"])
            n_features = int(payload["n_features"])
            return Forest(
                trees=tuple(_tree_from_dict(t, n_classes, n_features) for t in payload["trees"]),
                n_classes=n_classes,
                n_features=n_features,
            )
    except KeyError as missing:
        raise ModelFormatError(f"model payload missing field {missing}") from None
    except (ShapeMismatchError, InvalidConfigError, TypeError, ValueError, OverflowError) as err:
        raise ModelFormatError(f"malformed {family} model: {err}") from None
    raise ModelFormatError(f"unknown model family {family!r}")


def dumps(model: Model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def loads(text: str) -> Model:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"invalid JSON: {err}") from None
    return model_from_dict(payload)


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(dumps(model) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return loads(Path(path).read_text(encoding="utf-8"))
