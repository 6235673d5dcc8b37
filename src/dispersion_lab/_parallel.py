"""Deterministic work distribution over independent path indices.

Results are collected in input order, so any worker count yields the
same output bit for bit. The worker cap comes from the environment
variable DISPERSION_LAB_THREADS (default: serial), clamped to the cores
this process may run on.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "DISPERSION_LAB_THREADS"
_WORKER_PREFIX = "dispersion-lab-worker"


def usable_cores() -> int:
    """Cores in this process's affinity mask; the cpu count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, usable_cores()))


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
