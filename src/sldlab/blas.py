"""The thread pool of numpy's bundled OpenBLAS, read and set through ``ctypes``.

numpy's wheels link a private OpenBLAS whose exported names carry a prefix
and a suffix: ``scipy_openblas_set_num_threads64_`` from numpy 2.0 on, and
``openblas_set_num_threads64_`` or plain ``openblas_set_num_threads`` in the
1.x wheels.  The extension module ``_multiarray_umath`` links that library,
so a ``ctypes`` handle on the module finds the names.  A numpy built against
another BLAS (MKL, Accelerate, a system library without these names) has no
pool here, and callers leave its threading alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
from dataclasses import dataclass
from typing import Callable, Iterator

#: The module that links the bundled OpenBLAS, in numpy >= 2.0 and in numpy 1.x.
_MODULES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")
#: (prefix, suffix) of the exported names, newest first.
_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


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
    for name in _MODULES:
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):
            continue
        for prefix, suffix in _NAMES:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return BlasPool(get=get, set=set_)
        return None  # numpy 2 answers to the 1.x path too, with a DeprecationWarning
    return None
