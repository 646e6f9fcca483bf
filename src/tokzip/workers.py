"""Map a function over a document's sub-images, two at a time on two cores.

Sub-images are independent and each bundle draws from its own freshly
seeded generator, so the order in which they are processed moves no byte.
About half of a CLI sub-image's work (tensor reads, key norms, the walks'
comparisons, writes) runs in numpy outside BLAS, which releases the GIL, so
two sub-images overlap on two cores. Two at once would contend for the
cores with OpenBLAS's own threads, so while two run, its thread count is 1.

The two run on concurrent.futures.ThreadPoolExecutor, imported only when a
map runs two at once: imported with this module, it raised the peak memory
of the N=2304 library benchmark, which never maps two, by 5 to 9.5 MiB.
"""

import ctypes
import functools
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

    The items start in input order on a pool of two threads. Once an item has
    failed, no later item is started: the results before the earliest failure
    are yielded, then its exception is raised. Once the caller stops reading,
    no item is started. OpenBLAS runs at 1 thread while the two share the
    cores; its thread count is process-wide and restored on the way out.
    Without numpy's OpenBLAS, with fewer than 2 BLAS threads or with fewer
    than 2 items, the items run one after another on the calling thread.
    """
    items = list(items)
    blas = openblas_threads()
    threads = blas[0]() if blas else 1
    if threads < 2 or len(items) < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # here, not above: see the module docstring
    failed = []  # the indices of the items that raised; -1 once the map is left

    def run(i):
        if any(k < i for k in failed):  # the map raises or stops before this result
            return None
        try:
            return fn(items[i])
        except BaseException:
            failed.append(i)
            raise

    blas[1](1)
    try:
        with ThreadPoolExecutor(2) as pool:
            try:
                yield from pool.map(run, range(len(items)))
            finally:
                failed.append(-1)
    finally:
        blas[1](threads)
