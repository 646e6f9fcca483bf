"""map_two: input order, failures and the serial fallback, on stand-in BLAS functions."""

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tokzip import workers


@pytest.fixture
def blas(monkeypatch):
    """A stand-in for numpy's OpenBLAS at 2 threads; returns its thread count, as a list."""
    count = [2]
    monkeypatch.setattr(workers, "openblas_threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    return count


def test_results_come_in_input_order(blas):
    threads = set()

    def square(x):
        threads.add(threading.get_ident())
        np.sort(np.random.default_rng(x).random(20000))  # numpy work that releases the GIL
        return x * x

    assert list(workers.map_two(square, range(40))) == [x * x for x in range(40)]
    assert blas == [2] and len(threads) <= 2


@pytest.mark.parametrize("count", [None, 1])
def test_without_two_blas_threads_items_run_on_the_calling_thread(count, monkeypatch):
    fake = None if count is None else (lambda: count, lambda n: pytest.fail("set BLAS threads"))
    monkeypatch.setattr(workers, "openblas_threads", lambda: fake)
    threads = []
    results = workers.map_two(lambda x: threads.append(threading.get_ident()) or -x, [1, 2, 3])
    assert list(results) == [-1, -2, -3]
    assert set(threads) == {threading.get_ident()}


def test_the_earliest_failure_is_raised(blas):
    second_failed = threading.Event()

    def fail(x):
        if x == 0:
            assert second_failed.wait(timeout=60)
        elif x == 1:
            second_failed.set()
        raise ValueError(x)

    with pytest.raises(ValueError, match="^0$"):
        list(workers.map_two(fail, range(5)))
    assert blas == [2]


def test_each_item_runs_once_under_fast_switching(monkeypatch):
    """Three maps at once, six threads on fewer cores, switching every microsecond."""
    monkeypatch.setattr(workers, "openblas_threads", lambda: (lambda: 2, lambda n: None))
    runs, lock = Counter(), threading.Lock()

    def count(x):
        with lock:
            runs[x] += 1
        return x + 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            maps = [pool.submit(lambda: list(workers.map_two(count, range(300))))
                    for _ in range(3)]
            results = [m.result(timeout=120) for m in maps]
    finally:
        sys.setswitchinterval(old)
    assert results == [list(range(1, 301))] * 3
    assert runs == Counter({x: 3 for x in range(300)})
