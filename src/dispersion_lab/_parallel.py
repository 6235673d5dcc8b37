"""Deterministic work distribution, and the threads the lab owns.

Results are collected in input order, so any worker count yields the
same output bit for bit.  At import, numpy's bundled OpenBLAS is pinned
to one thread, and the threads it started with (OPENBLAS_NUM_THREADS, or
its own default) become the lab's workers instead, clamped to the cores
this process may run on.  Every GEMM then runs on one thread, so
data.csv does not depend on the count.  Where numpy's BLAS cannot be
pinned (MKL, Accelerate, an OpenBLAS outside numpy.libs), it keeps its
threads and the lab runs 1 worker.  scipy's LAPACK links its own
OpenBLAS copy, which spectral_operator pins with pin_blas too, once its
LAPACK extension has loaded it: an idle LAPACK thread would spin on a
core the workers need.
"""

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# thread-count symbols of numpy's and scipy's scipy-openblas wheels (ILP64 and
# LP64), then of older OpenBLAS builds
_BLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)
# the name of the kernel OpenBLAS picked at load, in the same builds' order
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def pin_blas(libs_dir: str) -> tuple[int, bool, str | None]:
    """Pin the OpenBLAS in libs_dir to one thread.

    Returns the thread count it started with, whether the pin took and
    the kernel's name (None where the library exports no name symbol);
    (1, False, None) where no library there exports a known symbol pair.
    """
    for path in sorted(glob.glob(os.path.join(libs_dir, "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy its package already loaded
        except OSError:
            continue
        for name in _BLAS_SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found = max(1, get())
            put(1)
            return found, get() == 1, _corename(lib)
    return 1, False, None


def _corename(lib) -> str | None:
    """The name of the kernel lib runs, None where it exports no name symbol."""
    for name in _CORENAME_SYMBOLS:
        if (fn := getattr(lib, name, None)) is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def bundled_libs(package) -> str:
    """Where the wheel of package keeps its bundled shared libraries."""
    site = os.path.dirname(os.path.dirname(package.__file__))
    return os.path.join(site, f"{package.__name__}.libs")


BLAS_THREADS_FOUND, BLAS_PINNED, BLAS_CORENAME = pin_blas(bundled_libs(np))


def usable_cores() -> int:
    """Cores in this process's affinity mask; the cpu count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """The BLAS threads found, clamped to the usable cores."""
    return min(BLAS_THREADS_FOUND, usable_cores())


def ordered_map(fn, items):
    """Map fn over items, returning results in input order."""
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
