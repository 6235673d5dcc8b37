"""Deterministic work distribution, and the threads the lab owns.

Results are collected in input order, so any worker count yields the
same output bit for bit.  At import, numpy's bundled OpenBLAS is pinned
to one thread, and the threads it started with (OPENBLAS_NUM_THREADS, or
its own default) go to the lab's workers instead: the worker cap is
DISPERSION_LAB_THREADS (default 1) times that BLAS thread count, clamped
to the cores this process may run on.  That is the core budget the
environment already grants as lab workers x BLAS threads.  Every GEMM
then runs on one thread, so data.csv depends on neither count.  Where
numpy's BLAS cannot be pinned (MKL, Accelerate, an OpenBLAS outside
numpy.libs), it keeps its threads and the cap is DISPERSION_LAB_THREADS.
scipy's LAPACK links its own OpenBLAS copy, which keeps its threads.
"""

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ENV_THREADS = "DISPERSION_LAB_THREADS"
_WORKER_PREFIX = "dispersion-lab-worker"
# thread-count symbols of numpy's scipy-openblas wheels, then of older OpenBLAS builds
_BLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def pin_blas(libs_dir: str) -> tuple[int, bool]:
    """Pin the OpenBLAS in libs_dir to one thread.

    Returns the thread count it started with and whether the pin took;
    (1, False) where no library there exports a known symbol pair.
    """
    for path in sorted(glob.glob(os.path.join(libs_dir, "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy already loaded
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
            return found, get() == 1
    return 1, False


BLAS_THREADS_FOUND, BLAS_PINNED = pin_blas(
    os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
)


def usable_cores() -> int:
    """Cores in this process's affinity mask; the cpu count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """DISPERSION_LAB_THREADS x the BLAS threads found, clamped to the usable cores."""
    try:
        lab = max(1, int(os.environ.get(ENV_THREADS, "1")))
    except ValueError:
        lab = 1
    return min(lab * BLAS_THREADS_FOUND, usable_cores())


def ordered_map(fn, items):
    """Map fn over items, returning results in input order.

    A map called from inside a work item runs serially in that worker, so
    pools never nest (per-path work that maps over its own tau blocks).
    """
    items = list(items)
    n = worker_count()
    nested = threading.current_thread().name.startswith(_WORKER_PREFIX)
    if n <= 1 or len(items) <= 1 or nested:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n, thread_name_prefix=_WORKER_PREFIX) as pool:
        return list(pool.map(fn, items))
