"""Keep the model's matrix products on the calling thread.

A packed minibatch puts a few hundred within-frame pairs through the pair
MLPs, and products of that size (about 350 x 56 by 56 x 28 and up) are where
OpenBLAS starts to split a product across threads. On a host with few CPUs,
waking the second thread for a 0.1 ms product costs more than the split
saves, and how much more depends on whether that CPU had gone idle: on a
2-vCPU guest, training steps ran 2-3x slower than on one thread and their
time changed from one run to the next. Results stay the same from run to run; they can differ in the
last bits from a threaded run only where OpenBLAS would have split the sum
of a long dot product (over 10,000 terms) between threads.

The thread count belongs to the process, so `one_thread` counts nested and
concurrent blocks and restores the count when the last one leaves. Where no
OpenBLAS can be found (another BLAS, or no /proc/self/maps), it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np  # noqa: F401  (loads the BLAS this module controls)


class _OpenBlas:
    def __init__(self, set_threads, get_threads):
        self._set, self._get = set_threads, get_threads
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def enter(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = self._get()
                self._set(1)
            self._depth += 1

    def leave(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self._set(self._saved)

    def threads(self) -> int:
        return self._get()


@functools.cache
def _openblas() -> _OpenBlas | None:
    """The thread control of the OpenBLAS loaded in this process, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        # numpy's wheels ship OpenBLAS with its symbols renamed
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                try:
                    set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return _OpenBlas(set_threads, get_threads)
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block's BLAS calls on the calling thread."""
    blas = _openblas()
    if blas is None:
        yield
        return
    blas.enter()
    try:
        yield
    finally:
        blas.leave()


def threads() -> int | None:
    """OpenBLAS's current thread count; None where it cannot be found."""
    blas = _openblas()
    return None if blas is None else blas.threads()
