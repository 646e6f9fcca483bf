"""Map a function over a document's sub-images, two at a time on two cores.

Sub-images are independent and each bundle draws from its own freshly
seeded generator, so the order in which they are processed moves no byte.
About half of a CLI sub-image's work (tensor reads, key norms, the walks'
comparisons, writes) runs in numpy outside BLAS, which releases the GIL, so
two sub-images overlap on two cores. Two at once would contend for the
cores with OpenBLAS's own threads, so while two run, its thread count is 1.
"""

import ctypes
import functools
import threading
from pathlib import Path

import numpy as np


@functools.cache
def openblas_threads():
    """numpy's bundled OpenBLAS thread-count functions (get, set), or None where not found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: same file, same handle
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def map_two(fn, items):
    """Yield fn(item) for each item in input order, running at most two at a time.

    One item runs on the calling thread and one on a worker thread; each takes
    the next item when it is free. Once an item has failed no item is started:
    the results before the earliest failure are yielded, then its exception is
    raised. OpenBLAS runs at 1 thread while the two share the cores; its thread
    count is process-wide and restored on the way out. Without numpy's OpenBLAS,
    with fewer than 2 BLAS threads or with fewer than 2 items, the items run one
    after another on the calling thread.
    """
    items = list(items)
    blas = openblas_threads()
    threads = blas[0]() if blas else 1
    if threads < 2 or len(items) < 2:
        yield from map(fn, items)
        return
    lock, stop = threading.Lock(), threading.Event()
    untaken, outcomes = iter(range(len(items))), {}  # index -> (ok, result or exception)

    def run_next():
        """Run the next item on this thread; False once none is left or one has failed."""
        with lock:
            i = None if stop.is_set() else next(untaken, None)
        if i is None:
            return False
        try:
            outcomes[i] = (True, fn(items[i]))
        except BaseException as e:  # raised again on the calling thread, in input order
            outcomes[i] = (False, e)
            stop.set()
        return True

    def work():
        while run_next():
            pass

    worker = threading.Thread(target=work, name="tokzip-map_two")
    blas[1](1)
    try:
        worker.start()
        try:
            i = 0
            while i < len(items):
                if i in outcomes:
                    ok, value = outcomes.pop(i)
                    if not ok:
                        raise value
                    yield value
                    i += 1
                elif not run_next():
                    worker.join()  # then every item started has its outcome
        finally:
            stop.set()
            worker.join()
    finally:
        blas[1](threads)
