import os
import threading

import pytest

from dispersion_lab import _parallel
from dispersion_lab._parallel import ENV_THREADS, ordered_map, usable_cores, worker_count


@pytest.fixture()
def cores(monkeypatch):
    """Pretend the process may run on a given number of cores; no thread starts."""

    def set_cores(n):
        affinity = set(range(n))
        monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: affinity, raising=False)

    return set_cores


@pytest.fixture()
def blas_found(monkeypatch):
    """Pretend numpy's BLAS started with a given thread count."""

    def set_found(n):
        monkeypatch.setattr(_parallel, "BLAS_THREADS_FOUND", n)

    return set_found


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch, cores, blas_found):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        cores(8)
        blas_found(1)
        assert worker_count() == 1

    @pytest.mark.parametrize(
        "raw, n_cores, expect",
        [("3", 8, 3), ("8", 2, 2), ("64", 4, 4), ("0", 4, 1), ("-2", 4, 1), ("abc", 4, 1), ("2", 1, 1)],
    )
    def test_clamped_to_usable_cores(self, monkeypatch, cores, blas_found, raw, n_cores, expect):
        monkeypatch.setenv(ENV_THREADS, raw)
        cores(n_cores)
        blas_found(1)
        assert worker_count() == expect

    @pytest.mark.parametrize(
        "raw, n_cores, expect",
        [(None, 8, 2), ("1", 8, 2), ("3", 8, 6), ("3", 4, 4), ("0", 4, 2), ("abc", 4, 2), ("2", 1, 1)],
    )
    def test_two_blas_threads_found_join_the_budget(self, monkeypatch, cores, blas_found, raw, n_cores, expect):
        # lab workers x BLAS threads, clamped to the usable cores
        if raw is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, raw)
        cores(n_cores)
        blas_found(2)
        assert worker_count() == expect

    def test_unpinnable_blas_keeps_its_threads(self, tmp_path, monkeypatch, cores, blas_found):
        # no OpenBLAS with known symbols (MKL, Accelerate): nothing is pinned,
        # one thread is counted, and DISPERSION_LAB_THREADS alone sets the cap
        (tmp_path / "libopenblas_fake.so").write_bytes(b"not a shared object")
        found, pinned = _parallel.pin_blas(str(tmp_path))
        assert (found, pinned) == (1, False)
        blas_found(found)
        monkeypatch.setenv(ENV_THREADS, "3")
        cores(8)
        assert worker_count() == 3

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
        assert usable_cores() == 3
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
        assert usable_cores() == 1
        monkeypatch.setenv(ENV_THREADS, "16")
        assert worker_count() == 1

    def test_real_affinity_is_at_least_one(self):
        assert usable_cores() >= 1
        assert usable_cores() <= (os.cpu_count() or 1)


def test_nested_map_runs_in_the_calling_worker(monkeypatch, cores):
    monkeypatch.setenv(ENV_THREADS, "2")
    cores(2)

    def outer(i):
        here = threading.current_thread().name
        inner = ordered_map(lambda j: (threading.current_thread().name, i * 10 + j), range(3))
        assert all(name == here for name, _ in inner)
        return [v for _, v in inner]

    assert ordered_map(outer, range(4)) == [[10 * i + j for j in range(3)] for i in range(4)]
