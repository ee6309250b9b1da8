"""The compiled kernels: build, cache, check and call ``_kernel.c``.

``_kernel.c`` holds three kernels: one epoch of ``models.train_svm``, the
growth of one ``models.train_forest`` tree, node by node, in a single call,
and the leaves one tree routes a block of rows to, for
``models.predict_scores``.  ``models`` imports this module and asks for the
kernels at the first ``train_svm``, ``train_forest`` or forest
``predict_scores`` call, never at package import, so runs that use none of
them pay nothing.  On first use the C source is compiled with ``cc`` at
``FLAGS`` into a per-user cache directory, under a name keyed by the sha256
of the source and the flags, and published with an atomic ``os.replace``;
later processes load the cached file.  A built file ends with the sha256 of
its own bytes, checked before it is loaded, since a truncated shared object
can crash the dynamic loader.

Each kernel reproduces its Python counterpart bit for bit by
construction.  ``FLAGS`` build at ``-O3``, which vectorizes element-wise
loops, with ``-ffp-contract=off`` and no fast-math flag, so every ``+`` and
``*`` still rounds once and no sum is reordered.  The SVM epoch takes its
dot products from the BLAS routines numpy's ``weights.dot(x)`` calls, found
among the dependencies of numpy's own extension module, forms each weight
row's +1/-1 target from the sample's int64 label, as
``models._signed_targets`` does, and does the rest of each step in plain
double arithmetic.  The tree grower draws each node's features from the
tree's own ``Generator``, through numpy's ``bitgen_t``, as ``rng.choice``
does, and counts classes over each column's value ranks
(``_Kernel.rank_features``), computed once per read-only block, one block at
a time; it scores each cut with the expressions of ``models._best_split``,
adding the class squares in class order, as ``models._gini`` does.  The
route compares each row's value with the node's threshold by ``<=``, as
``models._leaf_index`` does, and does no arithmetic.

Each kernel is checked in each process before its first use.  The shared
object's dots are compared bitwise with ``weights.dot`` when it opens; a
file that fails is neither published nor used.  The first ``train_forest``
compares the draws with ``rng.choice`` and the generator state it leaves,
seeded trees, node array for node array, with ``models._grow_tree``'s, and
those trees' routes with ``models._leaf_index``'s.  So SVM-only runs never
pay for the forest's checks.

If there is no compiler, a symbol is missing, no cache directory can be
written or a dot differs, ``train_svm``, ``train_forest`` and the forest's
``predict_scores`` run their Python paths; if only a forest check fails,
only the forest's do.  Either way they are slower, never different.
``path()`` says which path runs, and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import stat
import threading
import weakref
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
SYMBOLS = (
    "fedtab_svm_epoch", "fedtab_svm_dots", "fedtab_draw", "fedtab_grow", "fedtab_rank",
    "fedtab_route",
)
_BLAS_SYMBOLS = ("scipy_cblas_ddot64_", "scipy_cblas_dgemv64_")
_CHECK_WIDTHS = (1, 2, 3, 5, 8, 16, 39, 64)
_TAG = 32  # a built file ends with the sha256 of the bytes before it

# Nodes whose split moves if the class squares are added in any order but
# class order: (features, labels, classes, min_leaf, seed), where a tree's
# root draws from default_rng(seed) the two features that show it.  Three
# classes add as (a0 + a1) + a2 and split feature 0 at -1.5 of features
# [0, 1]; nine add as (...(a0 + a1) + ...) + a8 and split feature 2 at 1.5 of
# features [1, 2], where grouping them otherwise, as numpy's pairwise sum
# does from eight values, moves the split.
_SUM_ORDER_NODES = (
    (
        np.array([[-1.0, 0.0, 5.0], [-2.0, -2.0, 1.0], [-0.0, 2.0, -1.0], [-2.0, 2.0, -4.0],
                  [-0.0, -3.0, -2.0], [1.0, -0.0, -3.0], [1.0, -1.0, -1.0]]),
        np.array([2, 1, 0, 1, 1, 0, 0]), 3, 2, 1,
    ),
    (
        np.array([[1.0, 2.0, 2.0], [4.0, 1.0, 2.0], [1.0, 2.0, 3.0], [-0.0, 1.0, -2.0],
                  [-0.0, 1.0, -1.0], [3.0, -1.0, -1.0], [-1.0, -2.0, 3.0], [-3.0, 3.0, -1.0],
                  [-3.0, -2.0, 1.0], [2.0, 4.0, -0.0]]),
        np.array([8, 7, 5, 0, 8, 1, 7, 1, 6, 2]), 9, 1, 0,
    ),
)

# None until the first load(); then the _Kernel, or why the Python paths run
_loaded: _Kernel | str | None = None
_lock = threading.Lock()


class Unavailable(Exception):
    """The compiled kernels cannot be used; the message says why."""


class _RankedTree(ctypes.Structure):
    """``ranked_tree`` in ``_kernel.c``: one forest's ranks, one tree's buffers."""

    _fields_ = [
        ("ranks", ctypes.c_void_p),
        ("values", ctypes.c_void_p),
        ("offsets", ctypes.c_void_p),
        ("n_samples", ctypes.c_int64),
        ("d", ctypes.c_int64),
        ("y", ctypes.c_void_p),
        ("n_classes", ctypes.c_int64),
        ("min_leaf", ctypes.c_int64),
        ("rows", ctypes.c_void_p),
        ("n_rows", ctypes.c_int64),
        ("subset", ctypes.c_void_p),
        ("threshold", ctypes.c_double),
        ("child_counts", ctypes.c_void_p),
        ("work", ctypes.c_void_p),
    ]


class _Kernel:
    """The loaded shared object and the BLAS routines it calls."""

    def __init__(self, lib: ctypes.CDLL, blas: tuple[int, int]) -> None:
        self._lib = lib
        self._blas = blas
        try:
            self._epoch, self._dots, self._draw, self._grow, self._rank, self._route = (
                getattr(lib, name) for name in SYMBOLS
            )
        except AttributeError as err:  # a build of some other source
            raise Unavailable(f"compiled kernel lacks a symbol: {err}") from None
        i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        self._epoch.argtypes = [i64] * 3 + [ptr] * 3 + [dbl] * 2 + [ptr] * 6
        self._epoch.restype = None
        self._dots.argtypes = [i64] * 2 + [ptr] * 5
        self._dots.restype = None
        self._draw.argtypes = [ptr, i64, i64, ptr, ptr]
        self._draw.restype = None
        self._grow.argtypes = [ptr, ptr] + [i64] * 3 + [ptr] * 5 + [i64]
        self._grow.restype = i64
        self._rank.argtypes = [ptr, i64, ptr, i64, ptr, ptr]
        self._rank.restype = i64
        self._route.argtypes = [i64] * 2 + [ptr] * 6
        self._route.restype = None
        self._forest_checked = False
        self._forest_fallback: str | None = None
        # the last read-only block ranked, as a weak reference, and its ranks
        self._ranked: tuple[weakref.ref, tuple] | None = None

    def dots_match_numpy(self) -> bool:
        rng = np.random.default_rng(0)
        for rows in (1, 3):
            for d in _CHECK_WIDTHS:
                for _ in range(4):
                    weights, x = rng.normal(size=(rows, d)), rng.normal(size=d)
                    dots = np.empty(rows)
                    pointers = (a.ctypes.data for a in (weights, x, dots))
                    self._dots(rows, d, *pointers, *self._blas)
                    if dots.tobytes() != weights.dot(x).tobytes():
                        return False
        return True

    def forest_fallback(self) -> str | None:
        """Why ``train_forest`` runs Python, or None when its compiled checks pass.

        The first call runs the checks; later calls return their verdict.
        """
        with _lock:
            if not self._forest_checked:
                self._forest_fallback = self._check_forest()
                self._forest_checked = True
        return self._forest_fallback

    def _check_forest(self) -> str | None:
        if not self.draws_match_numpy():
            return "compiled feature draws differ from numpy's rng.choice"
        return self.check_trees()

    def draws_match_numpy(self) -> bool:
        """Compare the compiled draws with ``rng.choice(d, size, replace=False)``.

        One generator draws every (d, size) case in C, its twin through
        ``rng.choice``; an odd number of 32-bit draws before each makes half
        of them start on the half word PCG64 keeps buffered.  The twins must
        draw the same values and end in the same state.
        """
        compiled, oracle = np.random.default_rng(0), np.random.default_rng(0)
        for k, d in enumerate((1, 2, 3, 5, 8, 16, 39, 64, 100, 1000)):
            for size in sorted({1, math.ceil(math.sqrt(d)), min(d, 32)}):
                for rng in (compiled, oracle):
                    rng.integers(0, 7, size=k % 2)
                if self.draw(compiled, d, size).tobytes() != oracle.choice(
                    d, size, replace=False
                ).tobytes():
                    return False
        return compiled.bit_generator.state == oracle.bit_generator.state

    def draw(self, rng: np.random.Generator, d: int, size: int) -> np.ndarray:
        """``rng.choice(d, size, replace=False)``, drawn in C from ``rng``'s bit generator."""
        if not 1 <= size <= d < 2**31:
            raise ValueError(f"expected 1 <= size <= d < 2**31, got size {size} of {d}")
        out, seen = np.empty(size, dtype=np.int64), np.zeros(d, dtype=np.uint8)
        self._draw(rng.bit_generator.ctypes.bit_generator, d, size, out.ctypes.data,
                   seen.ctypes.data)
        return out

    def check_trees(self) -> str | None:
        """Compare seeded compiled trees with ``models._grow_tree``'s, and their routes.

        Returns why the compiled trees or routes differ, or None.  Each tree
        is compared array for array, then routes its block's rows, one row
        at each split's threshold and those rows negated, as
        ``models._leaf_index`` does.  A rounded block of 3 classes and 11
        features has repeated values, signed zeros, a constant column and a
        column of distinct values, most of whose ranks are absent from a
        small node's histogram.  Two seeded blocks of 2 and 3 classes have
        two equal best columns, both drawn at the root, so a split that takes
        any maximum but the first one shows.  The ``_SUM_ORDER_NODES`` show
        class squares added in another order than class order.  The small
        blocks grow one split each.
        """
        from .models import TrainConfig, _grow_tree, _leaf_index, _preorder_tree, _subset_size

        data = np.random.default_rng(1)
        n, d = 40, 11
        X = np.round(data.normal(size=(n, d)) * 2.0)
        X[:, 0] *= 0.0  # -0.0 and 0.0
        X[:, 1] = 3.0
        X[:, -1] = data.normal(size=n)
        y, rows = data.integers(0, 3, size=n), data.integers(0, n, size=n)
        # (features, labels, bootstrap rows, classes, min_leaf, max_depth, draw seed)
        trees = [(X, y, rows, 3, 2, 4, 2)]
        data = np.random.default_rng(0)
        for n_classes, n in ((2, 12), (3, 9)):
            y = data.integers(0, n_classes, size=n)
            X = np.round(data.normal(size=(n, 4)) * 2.0)
            X[:, 1] = y + np.round(data.normal(size=n))  # likely the best column...
            X[:, 2] = X[:, 1]  # ...and its equal: seed 1 draws features [1, 2]
            X[:, 3] *= 0.0  # -0.0 and 0.0, equal to the sort
            trees.append((X, y, data.integers(0, n, size=n), n_classes, 1, 1, 1))
        for X, y, n_classes, min_leaf, seed in _SUM_ORDER_NODES:
            trees.append((X, y, np.arange(y.size), n_classes, min_leaf, 1, seed))
        differ = "compiled trees differ from models._grow_tree"
        for X, y, rows, n_classes, min_leaf, max_depth, seed in trees:
            size = _subset_size(X.shape[1])
            grow = self.tree_grower(X, y, n_classes, size, min_leaf, max_depth)
            try:
                got = _preorder_tree(*grow(rows.copy(), np.random.default_rng(seed)))
            except (RuntimeError, ValueError):  # outgrew its buffers, or not a tree
                return differ
            cfg = TrainConfig(max_depth=max_depth, min_leaf=min_leaf)
            want = _grow_tree(X, y, rows, np.random.default_rng(seed), n_classes, cfg)
            for name in ("feature", "threshold", "left", "right", "counts"):
                a, b = getattr(got, name), getattr(want, name)
                if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                    return differ
            at = np.repeat(got.threshold[got.feature >= 0, None], X.shape[1], axis=1)
            block = np.concatenate((X, at, -at))
            if self.route(got, block).tobytes() != _leaf_index(got, block).tobytes():
                return "compiled routes differ from models._leaf_index"
        return None

    def runner(self, X, labels, weights, bias):
        n, d = X.shape
        rows = weights.shape[0]
        shapes = [(X, (n, d)), (weights, (rows, d)), (bias, (rows,))]
        for array, shape in shapes:
            if array.shape != shape or array.dtype != np.float64 or not array.flags.c_contiguous:
                raise ValueError(f"expected a C-contiguous float64 array of shape {shape}")
        if labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got shape {labels.shape}")
        _check_indices("labels", labels, 2 if rows == 1 else rows)
        if not (weights.flags.writeable and bias.flags.writeable):
            raise ValueError("weights and bias must be writeable")
        arrays = (X, labels, weights, bias, np.empty(rows), np.empty(d))  # last two: scratch
        inputs, outputs = [a.ctypes.data for a in arrays[:2]], [a.ctypes.data for a in arrays[2:]]
        epoch, blas = self._epoch, self._blas

        def run(order: np.ndarray, lr: float, decay: float, _alive=arrays) -> None:
            # _alive keeps the arrays behind the pointers as long as run lives
            order = np.ascontiguousarray(order, dtype=np.int64)
            if order.shape != (n,) or (n and not 0 <= order.min() <= order.max() < n):
                raise ValueError(f"expected an order of the {n} sample indices")
            epoch(order.size, rows, d, order.ctypes.data, *inputs, lr, decay, *outputs, *blas)

        return run

    def rank_features(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each column's dense value ranks and distinct values, for the compiled trees.

        Returns ``ranks``, a (d, N) int32 array with ``ranks[f, row]`` the
        rank of ``X[row, f]`` among column ``f``'s distinct values; ``values``,
        those values in ascending order, column after column; and
        ``offsets``, d + 1 int64s with column ``f``'s values at
        ``values[offsets[f]:offsets[f + 1]]``.  -0.0 and 0.0 are one value,
        stored as whichever sorts first.  Each column is argsorted on its
        own, then ranked in C; a rank does not depend on how ties sort.
        ``X`` must be a C-contiguous float64 block without NaN.
        """
        N, d = X.shape
        if N >= 2**31:
            raise ValueError(f"expected fewer than 2**31 rows, got {N}")
        ranks = np.empty((d, N), dtype=np.int32)
        distinct = np.empty(N)
        values, offsets = [], np.zeros(d + 1, dtype=np.int64)
        # each .ctypes access builds a helper object, so take the addresses once
        x_at, ranks_at, distinct_at = X.ctypes.data, ranks.ctypes.data, distinct.ctypes.data
        for f in range(d):
            order = np.argsort(X[:, f])
            k = self._rank(x_at + f * X.itemsize, d, order.ctypes.data, N,
                           ranks_at + f * N * ranks.itemsize, distinct_at)
            values.append(distinct[:k].copy())
            offsets[f + 1] = offsets[f] + k
        return ranks, np.concatenate(values) if values else np.empty(0), offsets

    def ranked(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rank_features(X)``, reused while the same read-only block comes back.

        The forests of one pooled block (a seed's clean and poisoned central
        cells) rank it once.  Only a block that is read-only and owns its
        data is kept, through a weak reference, and only one: a new block's
        ranks replace the last one's, and they go when their block does.
        """
        kept = self._ranked
        if kept is not None and kept[0]() is X and not X.flags.writeable:
            return kept[1]
        self._ranked = None  # one block's ranks at a time, even while ranking the next
        ranked = self.rank_features(X)
        if not X.flags.writeable and X.flags.owndata:
            for array in ranked:
                array.flags.writeable = False
            self._ranked = (weakref.ref(X, self._forget), ranked)
        return ranked

    def _forget(self, ref: weakref.ref) -> None:
        kept = self._ranked
        if kept is not None and kept[0] is ref:
            self._ranked = None

    def tree_grower(self, X, y, n_classes, n_subset, min_leaf, max_depth):
        """``grow(rows, rng)`` for one forest's trees: see ``tree_grower``."""
        check_forest_inputs(X, y, n_classes, min_leaf)
        N, d = X.shape
        # a node holds at most N rows, so min_leaf >= N makes every node a leaf; the
        # clamp keeps 2 * min_leaf in the C code's int64 and the value in its field
        min_leaf = min(min_leaf, N)
        if not 0 <= n_subset <= d < 2**31:
            raise ValueError(f"expected 0 <= n_subset <= d < 2**31, got {n_subset} of {d}")
        ranks, values, offsets = self.ranked(X)
        subset = np.empty(d, dtype=np.int64)
        child = np.empty(2 * n_classes, dtype=np.int64)
        most = int(np.diff(offsets).max(initial=0))  # the most distinct values of a feature
        work = np.zeros(N + 3 * n_classes + d + most * n_classes, dtype=np.int64)
        arrays = (ranks, values, offsets, y, subset, child, work)
        # one forest's ranks and one tree's buffers; grow sets its rows before each tree
        tree = _RankedTree(
            ranks.ctypes.data, values.ctypes.data, offsets.ctypes.data, N, d,
            y.ctypes.data, n_classes, min_leaf, None, N, subset.ctypes.data, 0.0,
            child.ctypes.data, work.ctypes.data,
        )
        # a node at depth N - 1 holds one row, so a deeper limit changes nothing
        max_depth = min(max_depth, N)
        # every leaf below a split holds min_leaf rows, and a tree has 2 * leaves - 1 nodes
        capacity = max(1, min(2 * (N // min_leaf), 2 ** min(max_depth + 1, 62)) - 1)
        feature, right = np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.int64)
        threshold = np.empty(capacity)
        counts = np.empty((capacity, n_classes), dtype=np.int64)
        stack_capacity = max_depth + 2  # one right child waits per level, plus the top
        stack = np.empty(stack_capacity * (4 + n_classes), dtype=np.int64)
        buffers = (feature, threshold, right, counts, stack)
        pointers = [a.ctypes.data for a in buffers]
        address, grow_tree = ctypes.addressof(tree), self._grow
        alive = (arrays, buffers, tree)

        def grow(rows: np.ndarray, rng: np.random.Generator, _alive=alive):
            # _alive keeps the arrays behind the pointers as long as grow lives
            check_rows(rows, N)
            tree.rows = rows.ctypes.data
            bitgen = rng.bit_generator.ctypes.bit_generator
            n_nodes = grow_tree(address, bitgen, n_subset, max_depth, capacity, *pointers,
                                stack_capacity)
            if n_nodes < 0:
                raise RuntimeError("a tree outgrew its node or stack buffer")
            return tuple(a[:n_nodes].copy() for a in (feature, threshold, right, counts))

        return grow

    def route(self, tree, X: np.ndarray) -> np.ndarray:
        """The leaf each row of ``X`` reaches in ``tree``, walked in C: see ``leaf_router``."""
        from .models import Tree

        if not isinstance(tree, Tree):  # a Tree has checked that every walk ends at a leaf
            raise ValueError(f"expected a models.Tree, got {type(tree).__name__}")
        if X.ndim != 2 or X.dtype != np.float64 or not X.flags.c_contiguous:
            raise ValueError("features must be a C-contiguous 2-d float64 array")
        if tree.feature.max() >= X.shape[1]:
            raise ValueError(f"the tree splits on a feature past the block's {X.shape[1]}")
        leaf = np.empty(X.shape[0], dtype=np.int64)
        nodes = (tree.feature, tree.threshold, tree.left, tree.right)
        self._route(*X.shape, X.ctypes.data, *(a.ctypes.data for a in nodes), leaf.ctypes.data)
        return leaf


def _check_indices(name: str, array, top: int) -> None:
    if array.ndim != 1 or array.dtype != np.int64 or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous 1-d int64 array")
    if array.size and not 0 <= array.min() <= array.max() < top:
        raise ValueError(f"{name} must lie in [0, {top})")


def check_forest_inputs(X, y, n_classes: int, min_leaf: int) -> None:
    """Raise ValueError unless one forest's features and labels are safe to pass as pointers.

    ``X`` is a C-contiguous finite float64 (N, d) block and ``y`` N int64
    labels in ``[0, n_classes)``; the compiled search indexes class counts
    by label.
    """
    if X.ndim != 2 or X.dtype != np.float64 or not X.flags.c_contiguous:
        raise ValueError("features must be a C-contiguous 2-d float64 array")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    _check_indices("labels", y, n_classes)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"expected {X.shape[0]} labels, got {y.shape[0]}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be at least 1, got {min_leaf}")


def check_rows(rows, n: int) -> None:
    """Raise ValueError unless ``rows`` is one tree's ``n`` bootstrap rows, safe to pass.

    ``rows`` holds ``n`` writeable int64 row indices in ``[0, n)``; the
    compiled grower indexes the features' ranks by row and reorders the rows
    in place, one node's slice at a time.
    """
    if rows.shape != (n,):
        raise ValueError(f"expected the tree's {n} bootstrap rows")
    _check_indices("rows", rows, n)
    if not rows.flags.writeable:
        raise ValueError("rows must be writeable: each split reorders a node's rows")


def compiler() -> str | None:
    import shutil  # only a build needs it

    return shutil.which("cc")


def _blas() -> tuple[int, int]:
    """Addresses of the ddot and dgemv numpy's extension module is linked to."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)  # symbol lookup covers its dependencies
    addresses = []
    for name in _BLAS_SYMBOLS:
        try:
            addresses.append(ctypes.cast(getattr(lib, name), ctypes.c_void_p).value)
        except AttributeError:
            raise Unavailable(f"numpy's BLAS has no {name}") from None
    return addresses[0], addresses[1]


def _cache_dirs():
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(xdg):
        yield Path(xdg) / "fedtab"
    try:
        home = Path.home()
    except (RuntimeError, KeyError):  # no HOME and no passwd entry
        pass
    else:
        yield home / ".cache" / "fedtab"
    import tempfile  # only the last resort needs it

    yield Path(tempfile.gettempdir()) / f"fedtab-{os.getuid()}"


def _private(directory: Path) -> bool:
    """Make ``directory`` if need be; True when only this user can write it."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
        if info.st_uid != os.getuid() or not stat.S_ISDIR(info.st_mode):
            return False
        if stat.S_IMODE(info.st_mode) != 0o700:
            directory.chmod(0o700)
        return os.access(directory, os.W_OK | os.X_OK)
    except OSError:
        return False


def _open(path: Path, blas: tuple[int, int]) -> _Kernel:
    data = path.read_bytes()
    if hashlib.sha256(data[:-_TAG]).digest() != data[-_TAG:]:
        raise Unavailable(f"{path.name} is damaged")
    kernel = _Kernel(ctypes.CDLL(str(path)), blas)  # OSError if not a shared object
    if not kernel.dots_match_numpy():
        raise Unavailable("compiled dots differ from numpy's weights.dot")
    return kernel  # the forest's checks wait for its first use


def _build(source: bytes, target: Path, blas: tuple[int, int]) -> _Kernel:
    """Compile to a fresh file, check it, then publish it as ``target``."""
    cc = compiler()
    if cc is None:
        raise Unavailable("no C compiler (cc) on PATH")
    import subprocess  # only a build needs these
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        command = [cc, *FLAGS, "-o", tmp, "-x", "c", "-"]
        try:
            done = subprocess.run(command, input=source, capture_output=True, timeout=120)
        except subprocess.SubprocessError as err:
            raise Unavailable(f"{cc} failed: {err}") from None
        if done.returncode != 0:
            first = (done.stderr.decode(errors="replace").strip().splitlines() or ["?"])[0]
            raise Unavailable(f"{cc} failed: {first}")
        built = Path(tmp).read_bytes()
        Path(tmp).write_bytes(built + hashlib.sha256(built).digest())  # the loader ignores it
        # opened under its fresh name: reopening a path this process loaded
        # before would hand back that old copy
        kernel = _open(Path(tmp), blas)
        os.replace(tmp, target)
        return kernel
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load() -> _Kernel:
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:32]
    blas = _blas()
    directory = next((d for d in _cache_dirs() if _private(d)), None)
    if directory is None:
        raise Unavailable("no cache directory only this user can write")
    target = directory / f"kernel-{key}.so"
    if target.exists():
        try:
            return _open(target, blas)
        except (OSError, Unavailable):
            with contextlib.suppress(FileNotFoundError):
                target.unlink()  # truncated, corrupt or wrong: rebuild it
    return _build(source, target, blas)


def load() -> _Kernel | None:
    """The compiled kernels, building them on first use; None for the Python paths."""
    global _loaded
    with _lock:  # one build per process, even when threads train at once
        if _loaded is None:
            try:
                _loaded = _load()
            except (Unavailable, OSError) as why:
                _loaded = str(why) or type(why).__name__
    return _loaded if isinstance(_loaded, _Kernel) else None


def epoch_runner(X, labels, weights, bias):
    """A ``run(order, lr, decay)`` doing one SVM epoch in C, or None for Python.

    ``X`` (n, d), ``weights`` (rows, d) and ``bias`` (rows,) are
    C-contiguous float64 and ``labels`` n C-contiguous int64 classes, in
    ``[0, 2)`` for one weight row, else in ``[0, rows)``; the kernel forms
    the +1/-1 targets from them, as ``models._signed_targets`` does.
    ``run`` updates ``weights`` and ``bias`` in place.  ``order`` must be a
    permutation of ``range(n)``.
    """
    kernel = load()
    return None if kernel is None else kernel.runner(X, labels, weights, bias)


def tree_grower(X, y, n_classes: int, n_subset: int, min_leaf: int, max_depth: int):
    """A ``grow(rows, rng)`` for one forest's trees in C, or None for Python.

    ``X`` and ``y`` are as ``check_forest_inputs`` says; ``X``'s ranks are
    computed here, once for all the forest's trees, and kept for the next
    forest while ``X`` is the same read-only block (``_Kernel.ranked``).
    ``grow`` grows one tree on ``rows``, the tree's N writeable int64 bootstrap rows, which it
    reorders, drawing each node's ``n_subset`` features from ``rng`` as
    ``rng.choice`` would, and returns its preorder ``(feature, threshold,
    right, counts)`` arrays, as ``models._grow_tree`` builds them.  The
    first call in a process runs the forest's checks; None when one fails.
    """
    kernel = _forest_kernel()
    if kernel is None:
        return None
    return kernel.tree_grower(X, y, n_classes, n_subset, min_leaf, max_depth)


def leaf_router():
    """A ``route(tree, X)`` walking one tree's rows in C, or None for Python.

    ``route`` returns ``models._leaf_index(tree, X)``: the int64 index of the
    leaf each row of the C-contiguous float64 block ``X`` reaches in the
    ``models.Tree`` ``tree``.  None when the kernel is missing or a forest
    check fails, as for ``tree_grower``.
    """
    kernel = _forest_kernel()
    return None if kernel is None else kernel.route


def _forest_kernel() -> _Kernel | None:
    """The kernels when the forest's compiled checks pass, else None."""
    kernel = load()
    return None if kernel is None or kernel.forest_fallback() is not None else kernel


def path() -> str:
    """``"compiled"`` when every kernel runs C; else which runs Python, and why.

    ``"python: <reason>"`` when all do, ``"python for train_forest: <reason>"``
    when only the forest's growth and routing do.  The first call runs the
    forest's checks.
    """
    kernel = load()
    if kernel is None:
        return f"python: {_loaded}"
    why = kernel.forest_fallback()
    return "compiled" if why is None else f"python for train_forest: {why}"
