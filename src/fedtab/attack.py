"""Random label flipping for poisoning experiments.

The attack rewrites an exact share of the training labels before any
training starts: flip count = round(flip_fraction * n), each victim row
drawn without replacement, each new label uniform over the other classes.
Evaluation labels are never touched by callers of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFractionError, SingleClassError

@dataclass(frozen=True)
class AttackConfig:
    """Which clients are malicious and how much of their data they flip."""

    flip_fraction: float = 0.5
    malicious_clients: frozenset[int] = frozenset({0})
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_fraction <= 1.0:
            raise InvalidFractionError(
                f"flip_fraction must lie in [0, 1], got {self.flip_fraction}"
            )
        if any(c < 0 for c in self.malicious_clients):
            raise InvalidFractionError("client ids must be non-negative")


def flip_count(n: int, fraction: float) -> int:
    """Number of labels to flip: fraction * n rounded half away from zero."""
    return int(np.floor(fraction * n + 0.5))


def flip_labels(
    labels: np.ndarray, n_classes: int, config: AttackConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Return (poisoned labels, boolean flip mask); the input stays untouched.

    Every flipped row is guaranteed to change class.  With two classes that
    means the complement; with more, a uniform draw over the other classes.
    """
    if n_classes < 2:
        raise SingleClassError(f"need at least 2 classes to flip, got {n_classes}")
    clean = np.asarray(labels, dtype=np.int64)
    if clean.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {clean.shape}")
    if clean.size and (clean.min() < 0 or clean.max() >= n_classes):
        raise ValueError("labels outside [0, n_classes)")

    n = clean.shape[0]
    if n == 0:
        return clean.copy(), np.zeros(0, dtype=bool)
    m = flip_count(n, config.flip_fraction)
    rng = np.random.default_rng(config.seed)
    victims = rng.choice(n, size=m, replace=False)

    poisoned = clean.copy()
    # adding a uniform offset in [1, n_classes) modulo n_classes never maps a
    # label to itself, so every victim actually changes class
    offsets = rng.integers(1, n_classes, size=m)
    poisoned[victims] = (clean[victims] + offsets) % n_classes

    mask = np.zeros(n, dtype=bool)
    mask[victims] = True
    return poisoned, mask
