"""numpy's bundled OpenBLAS through ``ctypes``: its thread pool and two LAPACK drivers.

numpy's wheels link a private OpenBLAS whose exported names carry a prefix
and a suffix: ``scipy_openblas_set_num_threads64_`` from numpy 2.0 on, and
``openblas_set_num_threads64_`` or plain ``openblas_set_num_threads`` in the
1.x wheels.  The extension module ``_multiarray_umath`` links that library,
so a ``ctypes`` handle on the module finds the names.  A numpy built against
another BLAS (MKL, Accelerate, a system library without these names) has no
pool here, and callers leave its threading alone.

The same library exports its LAPACK with 64-bit integers
(``scipy_dsyevd_64_``, or ``dsyevd_64_``).  :func:`eigh` and :func:`qr_raw`
call ``dsyevd`` and ``dgeqrf`` on the caller's own array, overwriting it,
where ``np.linalg.eigh`` and ``np.linalg.qr(mode="raw")`` would first copy
it into a Fortran buffer of their own.  They follow numpy's calling
convention (same driver, triangle and workspace query), so every output bit
is numpy's; without the drivers they call numpy.  ``ctypes`` releases the
GIL during each call, as numpy does.  Their workspaces, like the other large
transients of a cell, come from :func:`mapped_empty`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

#: The module that links the bundled OpenBLAS, in numpy >= 2.0 and in numpy 1.x.
_MODULES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")
#: (prefix, suffix) of the exported names, newest first.
_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
#: (prefix, suffix) of the 64-bit-integer LAPACK names, newest first.
_LAPACK_NAMES = (("scipy_", "_64_"), ("", "_64_"))

#: Rows per block of :func:`_mirror_lower`, so that its triangle indices and
#: transposed copies are block-sized, not m^2 / 2 pairs at once.
_MIRROR_ROWS = 256


def _library() -> ctypes.CDLL | None:
    """A ``ctypes`` handle on the numpy extension module that links the bundled OpenBLAS."""
    for name in _MODULES:
        try:
            return ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):
            continue
    return None


@dataclass(frozen=True)
class BlasPool:
    """The get and set functions of one OpenBLAS thread pool."""

    get: Callable[[], int]
    set: Callable[[int], None]

    @contextlib.contextmanager
    def threads(self, count: int) -> Iterator[None]:
        """Run the body with the pool at ``count`` threads, then restore its starting count."""
        start = self.get()
        self.set(count)
        try:
            yield
        finally:
            self.set(start)


def blas_pool() -> BlasPool | None:
    """numpy's OpenBLAS thread pool, or None where numpy exports no thread setter."""
    lib = _library()
    if lib is None:
        return None
    for prefix, suffix in _NAMES:
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return BlasPool(get=get, set=set_)
    return None


@dataclass(frozen=True)
class Lapack:
    """The ``dsyevd`` and ``dgeqrf`` drivers of numpy's bundled LAPACK (64-bit integers)."""

    syevd: Callable[..., None]
    geqrf: Callable[..., None]


@functools.cache
def lapack() -> Lapack | None:
    """numpy's ``dsyevd`` and ``dgeqrf``, or None where numpy exports no 64-bit LAPACK."""
    lib = _library()
    if lib is None:
        return None
    for prefix, suffix in _LAPACK_NAMES:
        try:
            syevd = getattr(lib, f"{prefix}dsyevd{suffix}")
            geqrf = getattr(lib, f"{prefix}dgeqrf{suffix}")
        except AttributeError:
            continue
        int_p, addr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        # dsyevd(JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO), then
        # gfortran's hidden lengths of the two strings; dgeqrf(M, N, A, LDA, TAU, WORK, LWORK, INFO).
        syevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_p, addr, int_p, addr, addr, int_p,
                          addr, int_p, int_p, ctypes.c_size_t, ctypes.c_size_t]
        geqrf.argtypes = [int_p, int_p, addr, int_p, addr, addr, int_p, int_p]
        syevd.restype = geqrf.restype = None
        return Lapack(syevd=syevd, geqrf=geqrf)
    return None


def mapped_empty(shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
    """An uninitialized C-order array in an anonymous mapping of its own.

    The mapping goes back to the operating system when the last view of the
    array is dropped.  A large block from ``malloc`` may instead stay in the
    C heap once glibc's sliding mmap threshold has risen past its size, and
    the process then keeps every transient of a cell resident.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


_int = ctypes.c_int64  # LAPACK's INTEGER in numpy's 64-bit-integer build


def _check(info: ctypes.c_int64, driver: str) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{driver} failed with info = {info.value}")


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of the square C-order ``a`` onto its upper one, in row blocks."""
    m = a.shape[0]
    for lo in range(0, m, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, m)
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        block = a[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        block[upper] = block.T[upper]


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` bit for bit, overwriting the C-order symmetric ``a``.

    Returns (eigenvalues ascending, eigenvectors as columns); the
    eigenvectors are ``a.T``.  numpy hands LAPACK the lower triangle of
    ``a`` in a Fortran copy and calls ``dsyevd`` with JOBZ = 'V', UPLO = 'L'
    and the workspace sizes of a query.  Read as Fortran, ``a`` is its
    transpose, so the lower triangle is first copied onto the upper one (a
    Gram summed in parts need not be bit-symmetric), and the call is then
    the same.  It holds ``a`` and the 2 m^2 workspace, where numpy adds its
    copy and a separate output.  Without the drivers numpy runs, and ``a``
    is left as it was.
    """
    lib = lapack()
    if lib is None:
        return np.linalg.eigh(a)
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"eigh needs a writable C-order square float64 array, got {a.shape} {a.dtype}")
    m = a.shape[0]
    _mirror_lower(a)
    w = np.empty(m)
    n, lda, info = _int(m), _int(max(m, 1)), _int()

    def call(work, lwork, iwork, liwork):
        lib.syevd(b"V", b"L", n, a.ctypes.data, lda, w.ctypes.data,
                  work, lwork, iwork, liwork, info, 1, 1)

    work_query, iwork_query = ctypes.c_double(), _int()
    call(ctypes.byref(work_query), _int(-1), ctypes.byref(iwork_query), _int(-1))
    _check(info, "dsyevd workspace query")
    lwork, liwork = int(work_query.value), iwork_query.value
    work, iwork = mapped_empty((lwork,)), mapped_empty((liwork,), np.int64)
    call(work.ctypes.data, _int(lwork), iwork.ctypes.data, _int(liwork))
    _check(info, "dsyevd")
    return w, a.T


def qr_raw(a: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(a.T, mode="raw")[0]`` bit for bit, overwriting the C-order ``a``.

    ``a`` (k x m) read as Fortran is the m x k matrix that numpy factors.
    ``dgeqrf`` runs on it in place with the workspace of a query, as in
    numpy's ``qr``, and leaves numpy's raw ``h``: R on and above the
    diagonal of ``a.T``, the reflectors below it.  Returns ``a``.  The
    reflector scales tau are not kept.  Without the drivers numpy runs and
    returns its own array.
    """
    lib = lapack()
    if lib is None:
        return np.linalg.qr(a.T, mode="raw")[0]
    if not (a.ndim == 2 and a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"qr_raw needs a writable C-order float64 array, got {a.shape} {a.dtype}")
    cols, rows = a.shape
    m, n, lda, info = _int(rows), _int(cols), _int(max(rows, 1)), _int()
    tau = np.empty(min(rows, cols))

    def call(work, lwork):
        lib.geqrf(m, n, a.ctypes.data, lda, tau.ctypes.data, work, lwork, info)

    work_query = ctypes.c_double()
    call(ctypes.byref(work_query), _int(-1))
    _check(info, "dgeqrf workspace query")
    lwork = max(1, cols, int(work_query.value))
    work = mapped_empty((lwork,))
    call(work.ctypes.data, _int(lwork))
    _check(info, "dgeqrf")
    return a
