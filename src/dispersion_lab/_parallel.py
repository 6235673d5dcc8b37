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
core the workers need.  Each copy has one pin record, the dict pin_blas
returns (BLAS here, spectral_operator.LAPACK), which the run manifest
writes as it stands.
"""

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# the symbol families of numpy's and scipy's scipy-openblas wheels (ILP64 and LP64),
# then of older OpenBLAS builds: the (prefix, suffix) around get_num_threads,
# set_num_threads and get_corename, the name of the kernel OpenBLAS picked at load
_FAMILIES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "64_"), ("openblas_", ""))


def pin_blas(libs_dir: str) -> dict:
    """Pin the OpenBLAS in libs_dir to one thread; the manifest's record of it.

    threads_found is the thread count it started with, pinned whether the pin
    took, corename the kernel's name in the family of the pinned thread pair, or
    None; 1, False and None where no library there exports a known thread pair.
    """
    for path in sorted(glob.glob(os.path.join(libs_dir, "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy its package already loaded
        except OSError:
            continue
        for prefix, suffix in _FAMILIES:
            get, put, name = (
                getattr(lib, f"{prefix}{fn}{suffix}", None)
                for fn in ("get_num_threads", "set_num_threads", "get_corename")
            )
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found = max(1, get())
            put(1)
            if name is not None:
                name.argtypes, name.restype = [], ctypes.c_char_p
            corename = name().decode() if name is not None else None
            return {"threads_found": found, "pinned": get() == 1, "corename": corename}
    return {"threads_found": 1, "pinned": False, "corename": None}


def bundled_libs(package) -> str:
    """Where the wheel of package keeps its bundled shared libraries."""
    site = os.path.dirname(os.path.dirname(package.__file__))
    return os.path.join(site, f"{package.__name__}.libs")


BLAS = pin_blas(bundled_libs(np))


def usable_cores() -> int:
    """Cores in this process's affinity mask; the cpu count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """The BLAS threads found, clamped to the usable cores."""
    return min(BLAS["threads_found"], usable_cores())


def ordered_map(fn, items):
    """Map fn over items, returning results in input order."""
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
