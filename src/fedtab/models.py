"""Three classifiers trained from scratch on encoded tabular data.

- logistic regression: full-batch gradient descent on L2-regularized
  cross-entropy (sigmoid when binary, softmax otherwise),
- linear SVM: per-sample subgradient descent on the L2-regularized hinge
  loss, one-vs-rest for three or more classes, with a seeded per-epoch
  permutation and a 1/t learning-rate decay; each epoch runs in compiled C
  where ``fedtab.kernel`` can build it, else in Python, with the same
  bytes either way,
- random forest: bagged CART trees split on Gini impurity with a fresh
  ceil(sqrt(d)) feature subset at every node; each tree grows in one call
  into compiled C where ``fedtab.kernel`` can build it, else node by node
  in Python and numpy, with the same trees either way (see
  ``train_forest``).  A tree is a ``Tree`` of parallel node arrays in
  depth-first preorder, the one layout that growth builds and prediction
  walks, row by row in C or level by level in numpy (``predict_scores``).

The bias terms are never regularized.  Training with epochs = 0 returns the
initial parameters unchanged, which is what federated warm starts rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import EncodedDataset
from .errors import InvalidConfigError, ShapeMismatchError

MODEL_KINDS = ("logistic", "svm", "forest")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 1e-3
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:  # NaN fails every comparison
            raise InvalidConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise InvalidConfigError(f"epochs must be non-negative, got {self.epochs}")
        if not 0 <= self.l2 < math.inf:
            raise InvalidConfigError(f"l2 must be non-negative and finite, got {self.l2}")
        if self.n_trees < 1:
            raise InvalidConfigError(f"n_trees must be at least 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise InvalidConfigError(f"max_depth must be at least 1, got {self.max_depth}")
        if self.min_leaf < 1:
            raise InvalidConfigError(f"min_leaf must be at least 1, got {self.min_leaf}")


# model kind -> the TrainConfig fields its trainer reads besides epochs and
# seed, with their defaults; a model starts from TrainConfig(**its settings)
TRAIN_SETTINGS = {
    "logistic": {"learning_rate": 0.1, "l2": 1e-3},
    "svm": {"learning_rate": 0.05, "l2": 1e-3},
    "forest": {"n_trees": 100, "max_depth": 12, "min_leaf": 2},
}


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Weight matrix plus bias; one row when binary, one row per class otherwise."""

    weights: np.ndarray
    bias: np.ndarray
    kind: str
    n_classes: int

    def __post_init__(self) -> None:
        if self.kind not in ("logistic", "svm"):
            raise InvalidConfigError(f"unknown linear model kind {self.kind!r}")
        if self.n_classes < 2:
            raise InvalidConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        rows = 1 if self.n_classes == 2 else self.n_classes
        if self.weights.ndim != 2 or self.weights.shape[0] != rows:
            raise ShapeMismatchError(
                f"expected weights with {rows} rows, got shape {self.weights.shape}"
            )
        if self.bias.shape != (rows,):
            raise ShapeMismatchError(f"expected bias of shape ({rows},), got {self.bias.shape}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")

    @property
    def n_features(self) -> int:
        return int(self.weights.shape[1])


@dataclass(frozen=True, eq=False)
class Tree:
    """One CART tree as parallel node arrays in depth-first preorder.

    Node 0 is the root.  A split node ``i`` sends a row left when its
    ``feature[i]`` value is at most ``threshold[i]``; its children
    ``left[i]`` and ``right[i]`` come after it.  A leaf has ``feature`` -1,
    children -1 and threshold 0.  ``counts[i]`` holds the class counts of the
    training rows that reached node ``i``; a leaf's counts are its scores.

    The compiled walk reads these arrays unchecked, so a tree keeps
    read-only copies and raises ValueError unless they have one entry per
    node, int64 dtypes (``threshold`` float64), ``feature`` at least -1 and
    each split node's children after it inside the tree, so every walk ends
    at a leaf.  ``Forest`` checks the features against its width.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        for name in ("feature", "threshold", "left", "right", "counts"):
            array = getattr(self, name)
            dtype = np.float64 if name == "threshold" else np.int64
            if not isinstance(array, np.ndarray) or array.dtype != dtype:
                raise ValueError(f"a tree's {name} must be a {np.dtype(dtype)} array")
            array = array.copy()  # private, so nothing else can write it
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        feature, left, right = self.feature, self.left, self.right
        n = feature.shape[0] if feature.ndim == 1 else 0
        if n == 0 or any(a.shape != (n,) for a in (self.threshold, left, right)):
            raise ValueError("a tree's node arrays must be 1-d, non-empty and of one length")
        if self.counts.ndim != 2 or self.counts.shape[0] != n:
            raise ValueError(f"a tree's counts must be ({n}, n_classes), got {self.counts.shape}")
        if feature.min() < -1:
            raise ValueError("a tree's features must be -1 (a leaf) or a column index")
        split = np.flatnonzero(feature >= 0)
        for children in (left[split], right[split]):
            if not np.all((split < children) & (children < n)):
                raise ValueError("a split node's children must come after it, inside the tree")


@dataclass(frozen=True, eq=False)
class Forest:
    trees: tuple[Tree, ...]
    n_classes: int
    n_features: int

    def __post_init__(self) -> None:
        if not self.trees:
            raise InvalidConfigError("a forest needs at least one tree")
        if self.n_classes < 2 or self.n_features < 1:
            raise InvalidConfigError("invalid forest dimensions")
        for tree in self.trees:
            if not isinstance(tree, Tree):
                raise ValueError(f"a forest holds Trees, got {type(tree).__name__}")
            if tree.counts.shape[1] != self.n_classes:
                raise ValueError(
                    f"a tree counts {tree.counts.shape[1]} classes, the forest {self.n_classes}"
                )
            if tree.feature.max() >= self.n_features:
                raise ValueError(f"a tree's features must lie in [-1, {self.n_features})")


Model = LinearModel | Forest


def _check_train_inputs(train: EncodedDataset) -> None:
    if train.n_samples == 0:
        raise ShapeMismatchError("cannot train on an empty dataset")


def _initial_params(
    init: LinearModel | None, kind: str, train: EncodedDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Check ``train`` and ``init``; return a linear trainer's starting (weights, bias).

    Zeros without ``init``, else float64, C-ordered copies of its parameters,
    which the trainer may then update in place.
    """
    _check_train_inputs(train)
    if init is None:
        rows = 1 if train.n_classes == 2 else train.n_classes
        return np.zeros((rows, train.n_features)), np.zeros(rows)
    if init.kind != kind:
        raise ShapeMismatchError(f"init model is {init.kind!r}, expected {kind!r}")
    if init.n_classes != train.n_classes:
        raise ShapeMismatchError(
            f"init covers {init.n_classes} classes, data has {train.n_classes}"
        )
    if init.n_features != train.n_features:
        raise ShapeMismatchError(
            f"init expects {init.n_features} features, data has {train.n_features}"
        )
    return np.array(init.weights, np.float64, order="C"), np.array(init.bias, np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _row_max(z: np.ndarray) -> np.ndarray:
    """Each row's max as an (n, 1) column, folded over the columns.

    Equals ``z.max(axis=1, keepdims=True)`` except that a row whose max is
    both -0.0 and 0.0 may get either zero; ``z - max`` then differs only in
    the sign of a zero, which ``exp`` maps to 1 either way.  A few
    column-wise ``np.maximum`` calls cost far less than numpy's reduction
    over narrow rows.
    """
    top = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(top, z[:, j], out=top)
    return top[:, None]


def _softmax(z: np.ndarray) -> np.ndarray:
    """Each row's exponentials over their sum, added one class after another.

    Column adds cost far less than numpy's reduction over narrow rows, as in
    ``_row_max``.  Below eight classes ``ez.sum(axis=1)`` adds in this order
    too, so the bytes are the same; from eight it adds pairwise, which this
    fold may differ from in the last bits (``_gini`` adds in class order too).
    """
    ez = np.exp(z - _row_max(z))
    total = ez[:, 0].copy()
    for j in range(1, ez.shape[1]):
        total += ez[:, j]
    return ez / total[:, None]


def logistic_gradient(
    model: LinearModel, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in (weights, bias) of the mean cross-entropy plus (l2 / 2) * ||W||^2."""
    n = X.shape[0]
    z = X @ model.weights.T + model.bias
    if model.n_classes == 2:
        p = _sigmoid(z[:, 0])
        residual = (p - y)[:, None]
    else:
        p = _softmax(z)
        p[np.arange(n), y] -= 1.0
        residual = p
    grad_w = residual.T @ X / n + l2 * model.weights
    grad_b = residual.sum(axis=0) / n
    return grad_w, grad_b


def train_logreg(
    train: EncodedDataset, cfg: TrainConfig, init: LinearModel | None = None
) -> LinearModel:
    """Full-batch gradient descent; deterministic, no randomness involved.

    Raises InvalidConfigError when the parameters stop being finite: the
    learning rate is too large for the data.
    """
    weights, bias = _initial_params(init, "logistic", train)
    X, y = train.features, train.labels
    # a diverging run overflows on its way to the non-finite parameters that
    # _logistic_model turns into InvalidConfigError: no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            model = _logistic_model(weights, bias, train.n_classes, cfg)
            grad_w, grad_b = logistic_gradient(model, X, y, cfg.l2)
            weights = weights - cfg.learning_rate * grad_w
            bias = bias - cfg.learning_rate * grad_b
    return _logistic_model(weights, bias, train.n_classes, cfg)


def _logistic_model(weights, bias, n_classes: int, cfg: TrainConfig) -> LinearModel:
    try:
        return LinearModel(weights, bias, "logistic", n_classes)
    except ValueError:  # LinearModel's only ValueError: parameters that are not finite
        raise InvalidConfigError(
            f"logistic training diverged: its parameters are not finite at learning_rate "
            f"{cfg.learning_rate}"
        ) from None


def _signed_targets(y: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, rows) matrix of +/-1 targets, one column per weight row."""
    if n_classes == 2:
        return np.where(y == 1, 1.0, -1.0)[:, None]
    return np.where(y[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)


def train_svm(
    train: EncodedDataset, cfg: TrainConfig, init: LinearModel | None = None
) -> LinearModel:
    """Seeded per-sample subgradient descent on the regularized hinge loss.

    Epoch t uses learning rate ``learning_rate / t`` and a fresh sample
    permutation from the configured seed.  The weight decay factor is
    carried as a scalar and folded back once per epoch, which changes
    nothing semantically but keeps the inner loop cheap.

    Each step takes the sample's dots with the weight rows, and every row
    whose target ``t`` (+1 or -1) fails the margin test
    ``t * (s * dot + b) < 1`` moves by the scaled row ``(lr / scale) * x``,
    formed once per step: added when ``t = 1``, subtracted when ``t = -1``.
    That is exactly the vectorized form's ``((lr / scale) * t) * x`` added
    in place: negation is exact, so ``(-a) * x == -(a * x)`` and
    ``w + (-v) == w - v``, signed zeros included.  Its bias moves by
    ``lr * t``.  It starts, as ``train_logreg`` does, from zeros or from
    float64 C-ordered copies of ``init`` (``_initial_params``).

    Python draws the permutations, in the same order on either path below,
    and checks the decay; each epoch then runs in one of two ways with the
    same bytes.  ``kernel.path()`` says which:

    - compiled (``fedtab.kernel``): the epoch is one call into C, which
      takes the labels and forms each step's targets itself, as
      ``_signed_targets`` forms them, takes the dots from the BLAS routine
      numpy's ``weights.dot(x)`` calls and does the rest in double
      arithmetic rounded as Python rounds it;
    - Python (``_python_svm_epoch``, on ``_signed_targets``), when the
      kernel cannot be built, loaded or trusted.
    """
    weights, bias = _initial_params(init, "svm", train)
    from . import kernel  # imported, and built, at the first SVM or forest training only

    X = np.ascontiguousarray(train.features, dtype=np.float64)
    y = np.ascontiguousarray(train.labels, dtype=np.int64)
    run_epoch = kernel.epoch_runner(X, y, weights, bias) or _python_svm_epoch(
        X, _signed_targets(y, train.n_classes), weights, bias
    )
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.learning_rate / epoch
        decay = 1.0 - lr * cfg.l2
        if decay <= 0.0:
            raise InvalidConfigError("learning_rate * l2 too large; weights would vanish")
        run_epoch(rng.permutation(train.n_samples), lr, decay)
    return LinearModel(weights, bias, "svm", train.n_classes)


def _python_svm_epoch(X: np.ndarray, signed: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """``train_svm``'s epoch as a Python loop: a ``run(order, lr, decay)``.

    Each sample makes one numpy call, the dot product through the bound
    method ``wdot = weights.dot``, which reaches the same BLAS routine as
    ``weights @ x`` but skips the matmul ufunc dispatch.  It is bound once,
    so it reads the ``weights`` object it was taken from: ``weights`` must
    only be updated in place (its row views, ``out=weights``).  The margin
    test, the step size and the bias update are Python float arithmetic on
    lists; float64 ``*`` and ``+`` round the same in Python as in numpy
    element-wise ops.
    """
    samples = list(X)
    targets = signed.tolist()
    wrows = list(weights)  # row views: in-place updates land in `weights`
    wdot = weights.dot

    def run(order: np.ndarray, lr: float, decay: float) -> None:
        b = bias.tolist()
        scale = 1.0
        for i in order.tolist():
            x = samples[i]
            dots = wdot(x).tolist()
            s = scale
            scale *= decay
            step = None
            for r, t in enumerate(targets[i]):
                if t * (s * dots[r] + b[r]) < 1.0:
                    if step is None:
                        step = (lr / scale) * x
                    if t > 0.0:
                        wrows[r] += step
                    else:
                        wrows[r] -= step
                    b[r] += lr * t
        np.multiply(weights, scale, out=weights)  # in place, as `weights *= scale`
        bias[:] = b

    return run


def _gini(counts: np.ndarray, size) -> np.ndarray:
    """1 - the sum of (counts / size) ** 2 over the last axis, added in class order.

    ``sum`` would add eight or more classes pairwise; a cumsum adds them one
    after another, as the compiled grower does.
    """
    ratios = counts / size
    return 1.0 - np.cumsum(ratios * ratios, axis=-1)[..., -1]


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    rng: np.random.Generator,
    n_classes: int,
    cfg: TrainConfig,
) -> Tree:
    """Grow one tree on ``rows`` depth-first in Python, one ``_best_split`` per node.

    Nodes are taken from an explicit stack, a split node's left child before
    its right, so the tree comes out in preorder and every node draws its
    feature subset from ``rng`` in the order of a recursive grower.  A node
    is a slice of one copy of ``rows``; a split reorders the slice into the
    rows going left, then right, each in their original order, as the
    compiled grower does.  Nothing the grower builds refers back to itself,
    so a finished tree and its training block are freed without waiting for
    the cyclic collector.

    ``train_forest`` grows its trees here when the compiled grower cannot be
    built, loaded or trusted; it is also the reference that grower's trees
    are checked against.  ``X`` and ``y`` must be as
    ``kernel.check_forest_inputs`` says and ``rows`` as ``kernel.check_rows``
    says, else it raises ValueError.
    """
    from .kernel import check_forest_inputs, check_rows

    min_leaf = cfg.min_leaf
    check_forest_inputs(X, y, n_classes, min_leaf)
    check_rows(rows, X.shape[0])
    rows = rows.copy()  # each split reorders a node's rows in place
    d = X.shape[1]
    size = _subset_size(d)
    root_counts = np.bincount(y[rows], minlength=n_classes).tolist()
    nodes = []  # [feature, threshold, right, counts] per node, in preorder
    # (first row, end row, class counts, depth, node whose right child it is)
    stack = [(0, rows.shape[0], root_counts, 0, -1)]
    while stack:
        start, stop, counts, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][2] = len(nodes)
        nodes.append([-1, 0.0, -1, counts])
        n = stop - start
        if depth >= cfg.max_depth or n < 2 * min_leaf or max(counts) == n:
            continue
        subset = rng.choice(d, size=size, replace=False)
        node = rows[start:stop]
        labels = y[node]
        node_counts = np.bincount(labels, minlength=n_classes)
        split = _best_split(X[node, subset[:, None]], labels, node_counts, min_leaf)
        if split is None:
            continue
        i, threshold, go_left = split
        left_counts = np.bincount(labels[go_left], minlength=n_classes)
        node[:] = np.concatenate((node[go_left], node[~go_left]))
        nodes[-1][:2] = int(subset[i]), threshold
        middle = start + int(left_counts.sum())
        stack.append((middle, stop, (node_counts - left_counts).tolist(), depth + 1,
                      len(nodes) - 1))
        stack.append((start, middle, left_counts.tolist(), depth + 1, -1))
    return _preorder_tree(*(np.array(column) for column in zip(*nodes)))


def _subset_size(d: int) -> int:
    """How many of the d features each node draws: ceil(sqrt(d))."""
    return math.ceil(math.sqrt(d))


def _preorder_tree(feature, threshold, right, counts) -> Tree:
    """The ``Tree`` of preorder node arrays, its ``left`` worked out from ``feature``."""
    # preorder puts a split node's left child right after it
    left = np.where(feature >= 0, np.arange(1, feature.size + 1), -1)
    return Tree(feature, threshold, left, right, counts)


def _best_split(
    values: np.ndarray, labels: np.ndarray, counts: np.ndarray, min_leaf: int
) -> tuple[int, float, np.ndarray] | None:
    """(subset position, threshold, rows going left) of the best split, or None.

    ``values`` is the node's (F, n) block, one row per drawn feature, sorted
    per feature by a stable argsort; one cumsum of the sorted one-hot labels
    gives the class counts left of every cut.  A cut is valid at a value
    boundary with ``min_leaf`` rows on each side; Gini is computed at the
    valid cuts only, listed feature-major, and one argmax picks the split.
    The trees are bit-identical to searching the features one at a time
    (``tests/_oracles.py``):

    - Gini is computed elementwise, and only at the boundary cuts that
      search scores, so each gain is the same expression on the same
      counts, its class squares added in class order (``_gini``) as the
      compiled grower adds them; the counts left of a boundary do not
      depend on how the sort orders equal values;
    - ties keep its order: the argmax returns the first maximum, which is
      the first cut within a feature and the earliest feature in subset
      order, as its strict ``>`` scan does, and a split needs a gain
      strictly above 0.

    The search's temporaries die on return, before the children grow.
    """
    n = labels.shape[0]
    order = np.argsort(values, axis=1, kind="stable")
    sv = values[np.arange(values.shape[0])[:, None], order]
    onehot = labels[:, None] == np.arange(counts.shape[0])
    cum = np.cumsum(onehot[order], axis=1, dtype=np.int32)
    # cut j sends sorted positions 0..j left; min_leaf rows on each side
    # means first <= j < stop
    first, stop = min_leaf - 1, n - min_leaf
    feat, cut = np.nonzero(sv[:, first:stop] != sv[:, first + 1 : stop + 1])
    if feat.size == 0:
        return None
    cut += first
    left_counts = cum[feat, cut]
    nl = cut + 1
    nr = n - nl
    right_counts = counts - left_counts
    weighted = (nl * _gini(left_counts, nl[:, None]) + nr * _gini(right_counts, nr[:, None])) / n
    gains = _gini(counts, n) - weighted
    k = int(np.argmax(gains))
    if not gains[k] > 0.0:
        return None

    i, j = feat[k], cut[k]
    lo, hi = sv[i, j], sv[i, j + 1]
    threshold = (lo + hi) / 2.0
    if not lo <= threshold < hi:  # adjacent floats can round the midpoint up
        threshold = lo
    return int(i), threshold, values[i] <= threshold


def train_forest(train: EncodedDataset, cfg: TrainConfig) -> Forest:
    """Bagged CART trees; per-tree seeding makes tree order irrelevant.

    Tree ``t`` draws its bootstrap rows, then every node's feature subset,
    from its own ``default_rng((seed, t))``.  Each tree grows in one of two
    ways with the same bytes, the way ``train_svm`` runs its epochs
    (``kernel.path()`` says which):

    - compiled (``kernel.tree_grower``): one C call per tree runs
      ``_grow_tree``'s stack and leaf tests, draws each subset from the
      tree's bit generator as ``rng.choice`` does, and counts classes over
      value ranks computed once per read-only block (so once for the
      forests that share one), scoring the cuts with
      ``_best_split``'s expressions, rounded as numpy rounds them;
    - Python (``_grow_tree``), when the kernel cannot be built, loaded or
      trusted.

    The first call in a process checks the compiled draws against
    ``rng.choice`` and seeded compiled trees against ``_grow_tree``'s; if
    either differs, the forest runs Python.
    """
    _check_train_inputs(train)
    X = np.ascontiguousarray(train.features, dtype=np.float64)
    y = np.ascontiguousarray(train.labels, dtype=np.int64)
    n = train.n_samples
    from . import kernel  # imported, and built, at the first SVM or forest training only

    size = _subset_size(train.n_features)
    grow = kernel.tree_grower(X, y, train.n_classes, size, cfg.min_leaf, cfg.max_depth)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng((cfg.seed, t))
        bootstrap = rng.integers(0, n, size=n)
        if grow is None:
            trees.append(_grow_tree(X, y, bootstrap, rng, train.n_classes, cfg))
        else:
            trees.append(_preorder_tree(*grow(bootstrap, rng)))
    return Forest(tuple(trees), train.n_classes, train.n_features)


def _leaf_index(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf each row of ``X`` reaches, walking all rows one level per step.

    The rows still at a split node gather that node's feature and threshold
    and step to its left or right child.  Children come after their parent,
    so the walk ends within ``len(tree.feature)`` steps.  ``predict_scores``
    walks here when the compiled route cannot be built, loaded or trusted;
    it is also the reference that route is checked against.
    """
    leaf = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.flatnonzero(tree.feature[leaf] >= 0)
    while rows.size:
        at = leaf[rows]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        leaf[rows] = np.where(go_left, tree.left[at], tree.right[at])
        rows = rows[tree.feature[leaf[rows]] >= 0]
    return leaf


def predict_scores(model: Model, features: np.ndarray) -> np.ndarray:
    """(n, n_classes) score matrix; probabilities except for SVM margins.

    A forest's score is the mean over its trees of the class shares of the
    leaf each row reaches.  The leaves are found in C (``kernel.leaf_router``:
    one call per tree walks every row from the root by ``x[feature] <=
    threshold``) where the forest's compiled checks pass, else by
    ``_leaf_index``.  The walk does no arithmetic, so both give the same
    leaves, and numpy adds the scores in tree order either way.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"features must be 2-d, got shape {X.shape}")
    if isinstance(model, LinearModel):
        if X.shape[1] != model.n_features:
            raise ShapeMismatchError(
                f"model expects {model.n_features} features, got {X.shape[1]}"
            )
        z = X @ model.weights.T + model.bias
        if model.kind == "logistic":
            if model.n_classes == 2:
                p = _sigmoid(z[:, 0])
                return np.column_stack([1.0 - p, p])
            return _softmax(z)
        if model.n_classes == 2:
            return np.column_stack([-z[:, 0], z[:, 0]])
        return z
    if isinstance(model, Forest):
        if X.shape[1] != model.n_features:
            raise ShapeMismatchError(
                f"forest expects {model.n_features} features, got {X.shape[1]}"
            )
        from . import kernel

        route = kernel.leaf_router() or _leaf_index
        X = np.ascontiguousarray(X)  # as the compiled route reads it
        total = np.zeros((X.shape[0], model.n_classes))
        for tree in model.trees:
            scores = tree.counts / tree.counts.sum(axis=1, keepdims=True)
            total += scores[route(tree, X)]
        return total / len(model.trees)
    raise ShapeMismatchError(f"unknown model type {type(model).__name__}")


def predict_labels(model: Model, features: np.ndarray) -> np.ndarray:
    """Argmax over predict_scores; ties resolve to the lowest class index."""
    return np.argmax(predict_scores(model, features), axis=1).astype(np.int64)
