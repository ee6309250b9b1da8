"""The compiled kernels: build, cache, check and call ``_kernel.c``.

``_kernel.c`` holds two kernels: one epoch of ``models.train_svm`` and the
split search of one node of ``models._grow_tree``.  ``models`` imports this
module and asks for the kernels at the first ``train_svm`` or
``train_forest`` call, never at package import, so runs that train neither
pay nothing.  On first use the C source is compiled with ``cc`` into a
per-user cache directory, under a name keyed by the sha256 of the source
and the flags, and published with an atomic ``os.replace``; later processes
load the cached file.  A built file ends with the sha256 of its own bytes,
checked before it is loaded, since a truncated shared object can crash the
dynamic loader.

Both kernels reproduce their Python counterparts bit for bit by
construction.  The SVM epoch takes its dot products from the BLAS routines
numpy's ``weights.dot(x)`` calls, found among the dependencies of numpy's
own extension module, and does the rest of each step in plain double
arithmetic.  The split search sorts stably and scores each cut with the
expressions of ``models._best_split``, summing the class squares in the
order numpy's pairwise sum does.  Each process that loads the kernels first
compares the dots bitwise with ``weights.dot`` and the splits with
``models._best_split`` on seeded data.

If there is no compiler, a symbol is missing, no cache directory can be
written or a dot or a split differs, both ``train_svm`` and ``train_forest``
run their Python paths instead: slower, never different.  ``path()`` says
which path runs, and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import stat
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
SYMBOLS = ("fedtab_svm_epoch", "fedtab_svm_dots", "fedtab_split")
_BLAS_SYMBOLS = ("scipy_cblas_ddot64_", "scipy_cblas_dgemv64_")
_CHECK_WIDTHS = (1, 2, 3, 5, 8, 16, 39, 64)
_TAG = 32  # a built file ends with the sha256 of the bytes before it

# Nodes whose split moves if the class squares are summed in any order but
# numpy's: (features, labels, classes, min_leaf).  Three classes sum as
# (a0 + a1) + a2 and split feature 0 at -1.5; nine take numpy's eight-way
# unrolled pairwise sum and split feature 2 at -0.5.
_SUM_ORDER_NODES = (
    (
        np.array([[-1.0, 0.0, 5.0], [-2.0, -2.0, 1.0], [-0.0, 2.0, -1.0], [-2.0, 2.0, -4.0],
                  [-0.0, -3.0, -2.0], [1.0, -0.0, -3.0], [1.0, -1.0, -1.0]]),
        np.array([2, 1, 0, 1, 1, 0, 0]), 3, 2,
    ),
    (
        np.array([[1.0, 2.0, 2.0], [4.0, 1.0, 2.0], [1.0, 2.0, 3.0], [-0.0, 1.0, -2.0],
                  [-0.0, 1.0, -1.0], [3.0, -1.0, -1.0], [-1.0, -2.0, 3.0], [-3.0, 3.0, -1.0],
                  [-3.0, -2.0, 1.0], [2.0, 4.0, -0.0]]),
        np.array([8, 7, 5, 0, 8, 1, 7, 1, 6, 2]), 9, 1,
    ),
)

# None until the first load(); then the _Kernel, or why the Python paths run
_loaded: _Kernel | str | None = None
_lock = threading.Lock()


class Unavailable(Exception):
    """The compiled kernels cannot be used; the message says why."""


class _SplitTree(ctypes.Structure):
    """``split_tree`` in ``_kernel.c``: one tree's inputs and buffers."""

    _fields_ = [
        ("X", ctypes.c_void_p),
        ("d", ctypes.c_int64),
        ("y", ctypes.c_void_p),
        ("n_classes", ctypes.c_int64),
        ("rows", ctypes.c_void_p),
        ("subset", ctypes.c_void_p),
        ("min_leaf", ctypes.c_int64),
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
            self._epoch, self._dots, self._split = (getattr(lib, name) for name in SYMBOLS)
        except AttributeError as err:  # a build of some other source
            raise Unavailable(f"compiled kernel lacks a symbol: {err}") from None
        i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        self._epoch.argtypes = [i64] * 3 + [ptr] * 3 + [dbl] * 2 + [ptr] * 6
        self._epoch.restype = None
        self._dots.argtypes = [i64] * 2 + [ptr] * 5
        self._dots.restype = None
        self._split.argtypes = [ptr, i64, i64, i64]
        self._split.restype = i64

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

    def splits_match_numpy(self) -> bool:
        """Compare the compiled split search with ``models._best_split``.

        Two seeded blocks of 2 and 3 classes, ``min_leaf`` 1, have repeated
        values, signed zeros, a node inside the tree's rows, and two equal
        best columns, so taking any maximum but the first one shows.  The
        ``_SUM_ORDER_NODES`` (3 classes with ``min_leaf`` 2, and 9 classes)
        show a sum of the class squares in another order than numpy's.
        """
        rng = np.random.default_rng(0)
        nodes = []
        for n_classes, min_leaf, n, start, subset in ((2, 1, 12, 0, [3, 1, 2, 0]),
                                                      (3, 1, 9, 2, [2, 1])):
            y = rng.integers(0, n_classes, size=n)
            X = np.round(rng.normal(size=(n, 4)) * 2.0)
            X[:, 1] = y + np.round(rng.normal(size=n))  # likely the best column...
            X[:, 2] = X[:, 1]  # ...and its equal, drawn after it
            X[:, 3] *= 0.0  # -0.0 and 0.0, equal to the sort
            rows = rng.integers(0, n, size=n)
            nodes.append((X, y, rows, n_classes, min_leaf, start, np.array(subset)))
        for X, y, n_classes, min_leaf in _SUM_ORDER_NODES:
            nodes.append((X, y, np.arange(y.size), n_classes, min_leaf, 0, np.arange(3)))
        return all(self._split_matches(*node) for node in nodes)

    def _split_matches(self, X, y, rows, n_classes, min_leaf, start, subset) -> bool:
        """The same split of ``rows[start:]``, bit for bit, in C and in numpy."""
        from .models import _numpy_split_search  # models is loaded by now

        compiled, oracle = rows.copy(), rows.copy()
        got = self.split_search(X, y, compiled, n_classes, min_leaf)(start, rows.size, subset)
        want = _numpy_split_search(X, y, oracle, n_classes, min_leaf)(start, rows.size, subset)
        if compiled.tobytes() != oracle.tobytes() or (got is None) != (want is None):
            return False
        if got is None:
            return True
        same_threshold = np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        return got[0] == want[0] and same_threshold and got[2:] == want[2:]

    def runner(self, X, targets, weights, bias):
        n, d = X.shape
        rows = weights.shape[0]
        shapes = [(X, (n, d)), (targets, (n, rows)), (weights, (rows, d)), (bias, (rows,))]
        for array, shape in shapes:
            if array.shape != shape or array.dtype != np.float64 or not array.flags.c_contiguous:
                raise ValueError(f"expected a C-contiguous float64 array of shape {shape}")
        if not (weights.flags.writeable and bias.flags.writeable):
            raise ValueError("weights and bias must be writeable")
        arrays = (X, targets, weights, bias, np.empty(rows), np.empty(d))  # last two: scratch
        inputs, outputs = [a.ctypes.data for a in arrays[:2]], [a.ctypes.data for a in arrays[2:]]
        epoch, blas = self._epoch, self._blas

        def run(order: np.ndarray, lr: float, decay: float, _alive=arrays) -> None:
            # _alive keeps the arrays behind the pointers as long as run lives
            order = np.ascontiguousarray(order, dtype=np.int64)
            if order.shape != (n,) or (n and not 0 <= order.min() <= order.max() < n):
                raise ValueError(f"expected an order of the {n} sample indices")
            epoch(order.size, rows, d, order.ctypes.data, *inputs, lr, decay, *outputs, *blas)

        return run

    def split_search(self, X, y, rows, n_classes, min_leaf):
        """``search(start, stop, subset)`` for one tree: see ``split_search``."""
        check_tree_inputs(X, y, rows, n_classes, min_leaf)
        d, n = X.shape[1], rows.shape[0]
        subset_buffer = np.empty(d, dtype=np.int64)
        child = np.empty(2 * n_classes, dtype=np.int64)
        work = np.empty(4 * n + 4 * n_classes)
        tree = _SplitTree(
            X.ctypes.data, d, y.ctypes.data, n_classes, rows.ctypes.data,
            subset_buffer.ctypes.data, min_leaf, 0.0, child.ctypes.data, work.ctypes.data,
        )
        address, split = ctypes.addressof(tree), self._split
        alive = (X, y, rows, subset_buffer, child, work, tree)

        def search(start: int, stop: int, subset: np.ndarray, _alive=alive):
            # _alive keeps the arrays behind the pointers as long as search lives
            if not 0 <= start < stop <= n or not 0 < subset.shape[0] <= d:
                raise ValueError(f"expected a node inside the {n} rows and 1 to {d} features")
            subset_buffer[: subset.shape[0]] = subset
            i = split(address, start, stop - start, subset.shape[0])
            if i == -2:
                raise ValueError(f"subset {subset.tolist()} is outside the {d} features")
            if i < 0:
                return None
            counts = child.tolist()
            return i, tree.threshold, counts[:n_classes], counts[n_classes:]

        return search


def check_tree_inputs(X, y, rows, n_classes: int, min_leaf: int) -> None:
    """Raise ValueError unless one tree's inputs are safe to pass as pointers.

    ``X`` is a C-contiguous finite float64 (N, d) block, ``y`` N int64 labels
    in ``[0, n_classes)`` and ``rows`` writeable int64 row indices in
    ``[0, N)``; the compiled search indexes class counts by label and ``X``
    by row.
    """
    if X.ndim != 2 or X.dtype != np.float64 or not X.flags.c_contiguous:
        raise ValueError("features must be a C-contiguous 2-d float64 array")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    N = X.shape[0]
    for name, array, top in (("labels", y, n_classes), ("rows", rows, N)):
        if array.ndim != 1 or array.dtype != np.int64 or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous 1-d int64 array")
        if array.size and not 0 <= array.min() <= array.max() < top:
            raise ValueError(f"{name} must lie in [0, {top})")
    if y.shape[0] != N:
        raise ValueError(f"expected {N} labels, got {y.shape[0]}")
    if not rows.flags.writeable:
        raise ValueError("rows must be writeable: each split reorders a node's rows")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be at least 1, got {min_leaf}")


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
    if not kernel.splits_match_numpy():
        raise Unavailable("compiled splits differ from numpy's _best_split")
    return kernel


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


def epoch_runner(X, targets, weights, bias):
    """A ``run(order, lr, decay)`` doing one SVM epoch in C, or None for Python.

    ``X`` (n, d), ``targets`` (n, rows), ``weights`` (rows, d) and ``bias``
    (rows,) are C-contiguous float64; ``run`` updates ``weights`` and
    ``bias`` in place.  ``order`` must be a permutation of ``range(n)``.
    """
    kernel = load()
    return None if kernel is None else kernel.runner(X, targets, weights, bias)


def split_search(X, y, rows, n_classes: int, min_leaf: int):
    """A ``search(start, stop, subset)`` for one tree in C, or None for numpy.

    ``rows`` holds the tree's row indices; a node is its slice
    ``rows[start:stop]`` and ``subset`` its drawn feature indices.  ``search``
    returns None for a leaf, else ``(subset position, threshold, left class
    counts, right class counts)``, after reordering the node's rows in place
    into the rows going left and then those going right, each in their
    original order.  ``check_tree_inputs`` names what the arrays must be.
    """
    kernel = load()
    return None if kernel is None else kernel.split_search(X, y, rows, n_classes, min_leaf)


def path() -> str:
    """``"compiled"`` when the C kernels run, else ``"python: <reason>"``."""
    kernel = load()
    return "compiled" if kernel is not None else f"python: {_loaded}"
