"""The compiled SVM epoch: build, cache, check and call ``_svm_kernel.c``.

``models.train_svm`` imports this module and asks for the kernel at its
first call, never at package import, so runs without an SVM pay nothing.
On first use the C source is compiled with ``cc`` into a per-user cache
directory, under a name keyed by the sha256 of the source and the flags,
and published with an atomic ``os.replace``; later processes load the
cached file.  The kernel takes its dot products from the BLAS routines
numpy's ``weights.dot(x)`` calls, found among the dependencies of numpy's
own extension module, and does the rest of each step in plain double
arithmetic, so it reproduces the Python loop bit for bit by construction.
Each process that loads it first compares its dots bitwise with
``weights.dot`` on seeded random data.  A built file ends with the sha256
of its own bytes, checked before it is loaded, since a truncated shared
object can crash the dynamic loader.

If there is no compiler, a BLAS symbol is missing, no cache directory can
be written or a dot differs, ``train_svm`` runs its Python loop instead:
slower, never different.  ``path()`` says which path runs, and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import stat
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_svm_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_BLAS_SYMBOLS = ("scipy_cblas_ddot64_", "scipy_cblas_dgemv64_")
_CHECK_WIDTHS = (1, 2, 3, 5, 8, 16, 39, 64)
_TAG = 32  # a built file ends with the sha256 of the bytes before it

# None until the first load(); then the _Kernel, or why the Python loop runs
_loaded: _Kernel | str | None = None
_lock = threading.Lock()


class Unavailable(Exception):
    """The compiled epoch cannot be used; the message says why."""


class _Kernel:
    """The loaded shared object and the BLAS routines it calls."""

    def __init__(self, lib: ctypes.CDLL, blas: tuple[int, int]) -> None:
        self._lib = lib
        self._blas = blas
        self._epoch = lib.fedtab_svm_epoch
        i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        self._epoch.argtypes = [i64] * 3 + [ptr] * 3 + [dbl] * 2 + [ptr] * 6
        self._epoch.restype = None
        self._dots = lib.fedtab_svm_dots
        self._dots.argtypes = [i64] * 2 + [ptr] * 5
        self._dots.restype = None

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


def compiler() -> str | None:
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
    kernel = _Kernel(ctypes.CDLL(str(path)), blas)  # OSError, AttributeError if wrong
    if not kernel.dots_match_numpy():
        raise Unavailable("compiled dots differ from numpy's weights.dot")
    return kernel


def _build(source: bytes, target: Path, blas: tuple[int, int]) -> _Kernel:
    """Compile to a fresh file, check it, then publish it as ``target``."""
    cc = compiler()
    if cc is None:
        raise Unavailable("no C compiler (cc) on PATH")
    import subprocess  # only a build needs it

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
    target = directory / f"svm_kernel-{key}.so"
    if target.exists():
        try:
            return _open(target, blas)
        except (OSError, AttributeError, Unavailable):
            with contextlib.suppress(FileNotFoundError):
                target.unlink()  # truncated, corrupt or wrong: rebuild it
    return _build(source, target, blas)


def load() -> _Kernel | None:
    """The compiled kernel, building it on first use; None for the Python loop."""
    global _loaded
    with _lock:  # one build per process, even when threads train at once
        if _loaded is None:
            try:
                _loaded = _load()
            except (Unavailable, OSError) as why:
                _loaded = str(why) or type(why).__name__
    return _loaded if isinstance(_loaded, _Kernel) else None


def epoch_runner(X, targets, weights, bias):
    """A ``run(order, lr, decay)`` doing one epoch in C, or None for Python.

    ``X`` (n, d), ``targets`` (n, rows), ``weights`` (rows, d) and ``bias``
    (rows,) are C-contiguous float64; ``run`` updates ``weights`` and
    ``bias`` in place.  ``order`` must be a permutation of ``range(n)``.
    """
    kernel = load()
    return None if kernel is None else kernel.runner(X, targets, weights, bias)


def path() -> str:
    """``"compiled"`` when the C epoch runs, else ``"python: <reason>"``."""
    kernel = load()
    return "compiled" if kernel is not None else f"python: {_loaded}"
