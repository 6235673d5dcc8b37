import os
import threading
import types

import pytest

from dispersion_lab import _parallel
from dispersion_lab._parallel import ordered_map, usable_cores, worker_count


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
        monkeypatch.setitem(_parallel.BLAS, "threads_found", n)

    return set_found


class TestWorkerCount:
    def test_one_blas_thread_is_serial(self, cores, blas_found):
        cores(8)
        blas_found(1)
        assert worker_count() == 1

    @pytest.mark.parametrize(
        "found, n_cores, expect", [(2, 8, 2), (3, 8, 3), (8, 2, 2), (64, 4, 4), (2, 1, 1)]
    )
    def test_blas_threads_found_clamped_to_usable_cores(self, cores, blas_found, found, n_cores, expect):
        cores(n_cores)
        blas_found(found)
        assert worker_count() == expect

    @pytest.mark.parametrize("found, n_cores, expect", [(1, 8, 1), (2, 8, 2), (2, 1, 1)])
    def test_no_second_knob(self, monkeypatch, cores, blas_found, found, n_cores, expect):
        # the lab's own thread variable of earlier versions multiplies nothing
        monkeypatch.setenv("DISPERSION_LAB_THREADS", "8")
        cores(n_cores)
        blas_found(found)
        assert worker_count() == expect

    def test_unpinnable_blas_keeps_its_threads(self, tmp_path, cores, blas_found):
        # no OpenBLAS with known symbols (MKL, Accelerate): nothing is pinned,
        # one thread is counted, no kernel is named, and the lab runs one worker
        (tmp_path / "libopenblas_fake.so").write_bytes(b"not a shared object")
        record = _parallel.pin_blas(str(tmp_path))
        assert record == {"threads_found": 1, "pinned": False, "corename": None}
        blas_found(record["threads_found"])
        cores(8)
        assert worker_count() == 1

    def test_cpu_count_fallback(self, monkeypatch, blas_found):
        monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
        assert usable_cores() == 3
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
        assert usable_cores() == 1
        blas_found(16)
        assert worker_count() == 1

    def test_real_affinity_is_at_least_one(self):
        assert usable_cores() >= 1
        assert usable_cores() <= (os.cpu_count() or 1)


def fake_openblas(threads: int = 4, pins: bool = True, **symbols: tuple[str, str]):
    """A loaded library exporting, for each key of symbols (get_num_threads,
    set_num_threads, get_corename), that function with the (prefix, suffix)
    given: the thread count starts at threads and takes a set only if pins."""
    count = [threads]

    def set_num_threads(n):
        count[0] = n if pins else count[0]

    funcs = {
        "get_num_threads": lambda: count[0],
        "set_num_threads": set_num_threads,
        "get_corename": lambda: b"Zen",
    }
    return types.SimpleNamespace(
        **{f"{prefix}{fn}{suffix}": funcs[fn] for fn, (prefix, suffix) in symbols.items()}
    )


LP64 = ("scipy_openblas_", "")
ILP64 = ("scipy_openblas_", "64_")


class TestPinRecord:
    @pytest.fixture()
    def pin(self, monkeypatch, tmp_path):
        """pin(lib): pin_blas's record of a directory whose one OpenBLAS loads as lib."""

        def pin(lib):
            (tmp_path / "libscipy_openblas64_-fake.so").write_bytes(b"")
            monkeypatch.setattr(_parallel.ctypes, "CDLL", lambda path: lib)
            return _parallel.pin_blas(str(tmp_path))

        return pin

    def test_lp64_thread_pair_names_its_kernel(self, pin):
        lib = fake_openblas(get_num_threads=LP64, set_num_threads=LP64, get_corename=LP64)
        assert pin(lib) == {"threads_found": 4, "pinned": True, "corename": "Zen"}

    def test_thread_pair_without_a_name_symbol(self, pin):
        lib = fake_openblas(get_num_threads=LP64, set_num_threads=LP64)
        assert pin(lib) == {"threads_found": 4, "pinned": True, "corename": None}

    def test_name_is_read_from_the_pinned_family_only(self, pin):
        # an ILP64 name beside an LP64 thread pair names no kernel of that pair
        lib = fake_openblas(get_num_threads=LP64, set_num_threads=LP64, get_corename=ILP64)
        assert pin(lib) == {"threads_found": 4, "pinned": True, "corename": None}

    def test_half_a_thread_pair_is_no_pair(self, pin):
        lib = fake_openblas(get_num_threads=LP64, set_num_threads=ILP64, get_corename=LP64)
        assert pin(lib) == {"threads_found": 1, "pinned": False, "corename": None}

    def test_a_pin_that_does_not_take(self, pin):
        lib = fake_openblas(2, pins=False, get_num_threads=LP64, set_num_threads=LP64, get_corename=LP64)
        assert pin(lib) == {"threads_found": 2, "pinned": False, "corename": "Zen"}


class TestOrderedMap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_workers_run_at_once_and_keep_input_order(self, workers, n):
        # each call waits until n calls are in flight, so the map must run n threads
        meet = threading.Barrier(n, timeout=10)

        def fn(i):
            meet.wait()
            return i * i, threading.current_thread().name

        with workers(n):
            out = ordered_map(fn, range(6))
        assert [v for v, _ in out] == [i * i for i in range(6)]
        assert len({name for _, name in out}) == n

    @pytest.mark.parametrize("items", [[], [7]])
    def test_at_most_one_item_runs_in_the_caller(self, workers, items):
        with workers(2):
            out = ordered_map(lambda i: (i, threading.current_thread().name), items)
        assert out == [(i, threading.current_thread().name) for i in items]

    def test_accepts_a_generator(self, workers):
        with workers(2):
            assert ordered_map(str, (i for i in range(5))) == ["0", "1", "2", "3", "4"]

    def test_each_item_is_mapped_once(self, workers):
        seen = []
        lock = threading.Lock()

        def fn(i):
            with lock:
                seen.append(i)
            return i

        with workers(2):
            assert ordered_map(fn, range(20)) == list(range(20))
        assert sorted(seen) == list(range(20))

    def test_a_work_item_error_reaches_the_caller(self, workers):
        def fn(i):
            if i == 3:
                raise ValueError("item 3")
            return i

        with workers(2), pytest.raises(ValueError, match="item 3"):
            ordered_map(fn, range(6))
