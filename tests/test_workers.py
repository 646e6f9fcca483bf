"""map_two: input order, failures and the serial fallback, on stand-in BLAS functions."""

import os
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    second_failed, ran = threading.Event(), []

    def fail(x):
        ran.append(x)
        if x == 0:
            assert second_failed.wait(timeout=60)
        elif x == 1:
            second_failed.set()
        raise ValueError(x)

    with pytest.raises(ValueError, match="^0$"):
        list(workers.map_two(fail, range(5)))
    assert sorted(ran) == [0, 1] and blas == [2]


def test_results_before_a_later_failure_are_yielded(blas):
    second_failed, results = threading.Event(), []

    def fail_second(x):
        if x == 1:
            second_failed.set()
            raise ValueError(x)
        assert second_failed.wait(timeout=60)
        return -x

    with pytest.raises(ValueError, match="^1$"):
        for result in workers.map_two(fail_second, range(5)):
            results.append(result)
    assert results == [0] and blas == [2]


def test_no_item_starts_once_the_caller_stops_reading(blas):
    release, started = threading.Event(), []

    def hold(x):
        started.append(x)
        if x:  # every item but the first waits until the map is being closed
            assert release.wait(timeout=60)
        return x

    results = workers.map_two(hold, range(10))
    assert next(results) == 0
    timer = threading.Timer(0.5, release.set)  # close() waits for the items running
    timer.start()
    results.close()
    timer.join()
    assert set(started) <= {0, 1, 2} and blas == [2]


def test_importing_the_cli_leaves_the_pool_unimported():
    """The pool is imported where two items run at once; see the workers module docstring."""
    src = Path(workers.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", "import sys, tokzip, tokzip.cli; "
                           "print('concurrent.futures' in sys.modules)"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0 and done.stdout == "False\n"


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
