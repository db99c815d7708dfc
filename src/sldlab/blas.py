"""numpy's bundled OpenBLAS through ``ctypes``: its thread pool and four LAPACK drivers.

numpy's wheels link a private OpenBLAS whose exported names carry a prefix
and a suffix: ``scipy_openblas_set_num_threads64_`` from numpy 2.0 on, and
``openblas_set_num_threads64_`` or plain ``openblas_set_num_threads`` in the
1.x wheels.  The extension module ``_multiarray_umath`` links that library,
so a ``ctypes`` handle on the module finds the names.  A numpy built against
another BLAS (MKL, Accelerate, a system library without these names) has no
pool here, and callers leave its threading alone.

The same library exports its LAPACK with 64-bit integers
(``scipy_dsytrd_64_``, or ``dsytrd_64_``).  :func:`eigh_implicit` runs
``dsytrd`` and ``dstedc``, the first two stages of numpy's ``dsyevd``, on
the caller's own symmetric array, and keeps its third, the back-transform
``dormtr``, for the columns a caller multiplies (:class:`Reflectors`): the
eigenvalues are numpy's bit for bit, and the eigenvectors are never formed.
:func:`qr_raw` calls ``dgeqrf`` in place as numpy's ``qr`` does, so its
output is numpy's bit for bit.  Neither copies its input into a Fortran
buffer of its own, as numpy would; without the drivers both call numpy.
``ctypes`` releases the GIL during each call, as numpy does.  The
workspaces, like the other large transients of a cell, come from
:func:`mapped_empty`.
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

#: Fewest columns per ``dormtr`` call of :meth:`Reflectors.apply`.  ``dormtr``
#: applies Q 32 reflectors at a time, by products of about 32 k m
#: multiply-adds for k columns of m rows, and OpenBLAS spreads a product of
#: more than 2^18 multiply-adds over its threads, which for a few columns
#: costs more than it saves.  So a call takes at most 2^13 / m columns, and
#: never fewer than this many: on 2 cores 20 columns took 15, 61 and 203 ms
#: at m = 1000, 2000 and 4000 in one call, and 3.6-4.7, 28 and 112 ms in
#: calls of 8, 4 and 4 columns; calls of 2 were slower.
_ORMTR_COLUMNS = 4


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
    """The ``dsytrd``, ``dstedc``, ``dormtr`` and ``dgeqrf`` drivers of numpy's bundled LAPACK (64-bit integers)."""

    sytrd: Callable[..., None]
    stedc: Callable[..., None]
    ormtr: Callable[..., None]
    geqrf: Callable[..., None]


@functools.cache
def lapack() -> Lapack | None:
    """numpy's ``dsytrd``, ``dstedc``, ``dormtr`` and ``dgeqrf``, or None where numpy exports no 64-bit LAPACK."""
    lib = _library()
    if lib is None:
        return None
    int_p, addr, char, length = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    # dsytrd(UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO);
    # dstedc(COMPZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO);
    # dormtr(SIDE, UPLO, TRANS, M, N, A, LDA, TAU, C, LDC, WORK, LWORK, INFO);
    # dgeqrf(M, N, A, LDA, TAU, WORK, LWORK, INFO); each then takes gfortran's
    # hidden lengths of its string arguments.
    argtypes = {
        "dsytrd": [char, int_p, addr, int_p, addr, addr, addr, addr, int_p, int_p, length],
        "dstedc": [char, int_p, addr, addr, addr, int_p, addr, int_p, addr, int_p, int_p, length],
        "dormtr": [char, char, char, int_p, int_p, addr, int_p, addr, addr, int_p, addr, int_p, int_p,
                   length, length, length],
        "dgeqrf": [int_p, int_p, addr, int_p, addr, addr, int_p, int_p],
    }
    for prefix, suffix in _LAPACK_NAMES:
        try:
            drivers = [getattr(lib, f"{prefix}{name}{suffix}") for name in argtypes]
        except AttributeError:
            continue
        for driver, types in zip(drivers, argtypes.values()):
            driver.argtypes, driver.restype = types, None
        return Lapack(*drivers)
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


def _with_workspace(call: Callable[..., None], info: ctypes.c_int64, driver: str,
                    iwork: bool = False, least: int = 1) -> None:
    """Run ``call(work, lwork[, iwork, liwork])`` on workspaces sized by its own query.

    The query passes LWORK (and LIWORK) = -1, as numpy does; the workspaces
    then come from :func:`mapped_empty`, at least ``least`` floats.
    """
    work_query, iwork_query = ctypes.c_double(), _int()
    queries = (ctypes.byref(iwork_query), _int(-1)) if iwork else ()
    call(ctypes.byref(work_query), _int(-1), *queries)
    _check(info, f"{driver} workspace query")
    lwork = max(least, int(work_query.value))
    work = mapped_empty((lwork,))
    ints = mapped_empty((max(1, iwork_query.value),), np.int64) if iwork else None
    call(work.ctypes.data, _int(lwork), *(() if ints is None else (ints.ctypes.data, _int(ints.size))))
    _check(info, driver)


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of the square C-order ``a`` onto its upper one, in row blocks."""
    m = a.shape[0]
    for lo in range(0, m, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, m)
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        block = a[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        block[upper] = block.T[upper]


@dataclass(frozen=True, eq=False)
class Reflectors:
    """The orthogonal Q of a tridiagonal reduction Q^T A Q = T, as ``dsytrd`` leaves it.

    ``a`` is the reduced m x m C-order array, whose Householder vectors lie
    below the subdiagonal when it is read as Fortran, and ``tau`` holds
    their scales.  :meth:`apply` multiplies by Q or Q^T with ``dormtr``, in
    about 2 m^2 k flops for k columns; Q itself is never formed.
    """

    a: np.ndarray
    tau: np.ndarray

    def apply(self, c: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Q c, or Q^T c with ``transpose``, for an m x k ``c``; a new Fortran-order array.

        The columns go to ``dormtr`` in groups as wide as _ORMTR_COLUMNS says.
        """
        lib = lapack()
        out = np.array(c, dtype=np.float64, order="F")
        m, k = out.shape
        ld, info = _int(max(m, 1)), _int()

        def call(chunk, work, lwork):
            lib.ormtr(b"L", b"L", b"T" if transpose else b"N", _int(m), _int(chunk.shape[1]), self.a.ctypes.data,
                      ld, self.tau.ctypes.data, chunk.ctypes.data, ld, work, lwork, info, 1, 1, 1)

        width = max(_ORMTR_COLUMNS, 2**13 // max(m, 1))
        for lo in range(0, k, width):
            _with_workspace(functools.partial(call, out[:, lo:lo + width]), info, "dormtr")
        return out


def eigh_implicit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, Reflectors | None]:
    """The eigendecomposition a = (Q W) diag(lam) (Q W)^T of the C-order symmetric ``a``, in place.

    Returns (lam ascending, W, Q): the eigenvectors are Q W, and Q is kept
    as its reflectors in ``a``.  ``dsyevd``, which ``np.linalg.eigh`` calls
    with JOBZ = 'V', UPLO = 'L', is ``dsytrd`` (Q^T a Q = T, tridiagonal),
    ``dstedc`` with COMPZ = 'I' (T = W diag(lam) W^T) and a ``dormtr`` that
    forms Q W in about 2 m^3 flops.  This runs the first two on the
    same triangle (numpy hands LAPACK the lower triangle of ``a`` in a
    Fortran copy; read as Fortran, ``a`` is its transpose, so the lower
    triangle is first copied onto the upper one: a Gram summed in parts need
    not be bit-symmetric) with the workspaces of a query, so lam is numpy's
    bit for bit, and leaves the back-transform to :meth:`Reflectors.apply`,
    for the columns a caller reads.  ``dsyevd`` also rescales a matrix whose
    largest entry lies outside [sqrt(smlnum), sqrt(bignum)], about [1e-146,
    7e145]; no Gram of a dataset does, since sigma_z <= ``model.SIGMA_MAX``.
    It holds ``a``, W and ``dstedc``'s m^2 workspace (W and the workspaces are
    :func:`mapped_empty`).  Without the drivers numpy's ``eigh`` runs, ``a``
    is left as it was and Q is None (Q = I).
    """
    lib = lapack()
    if lib is None:
        return (*np.linalg.eigh(a), None)
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"eigh_implicit needs a writable C-order square float64 array, got {a.shape} {a.dtype}")
    m = a.shape[0]
    _mirror_lower(a)
    lam, off, tau = np.empty(m), np.empty(max(m, 1)), np.empty(max(m, 1))
    n, ld, info = _int(m), _int(max(m, 1)), _int()
    _with_workspace(lambda work, lwork: lib.sytrd(b"L", n, a.ctypes.data, ld, lam.ctypes.data, off.ctypes.data,
                                                  tau.ctypes.data, work, lwork, info, 1), info, "dsytrd")
    z = mapped_empty((m, m))  # read as Fortran, column j (row j here) is T's j-th eigenvector
    _with_workspace(lambda work, lwork, iwork, liwork: lib.stedc(
        b"I", n, lam.ctypes.data, off.ctypes.data, z.ctypes.data, ld, work, lwork, iwork, liwork, info, 1),
        info, "dstedc", iwork=True)
    return lam, z.T, Reflectors(a, tau)


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
    _with_workspace(lambda work, lwork: lib.geqrf(m, n, a.ctypes.data, lda, tau.ctypes.data, work, lwork, info),
                    info, "dgeqrf", least=max(1, cols))
    return a
