"""The OpenBLAS thread count, asked and set through ctypes.

numpy's wheels bundle OpenBLAS under `numpy.libs`.  With any other BLAS the
count is unknown: `blas_threads` returns None and `blas_pinned` does nothing.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=1)
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads():
    """Threads OpenBLAS splits a GEMM over, or None when it cannot be asked."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def blas_name():
    """numpy's BLAS as "name version", or None when numpy cannot say
    (`show_config` has no dict mode before numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


@contextmanager
def blas_pinned(threads: int):
    """Run the block with OpenBLAS at `threads` threads, then restore the
    count it had before."""
    before = blas_threads()
    if before is not None:
        _openblas()[1](threads)
    try:
        yield
    finally:
        if before is not None:
            _openblas()[1](before)
