"""Timing scaled to the machine's current speed.

The benchmark runs on shared hosts whose speed drifts: a fixed computation
can run 1.5-2x slower for a fraction of a second up to minutes at a time, on
every CPU of the guest at once, with no steal time visible, and process CPU
time slows with it. A median over one run cannot remove a slow spell that
covers the run.

So the clock splits the run into short segments and follows each with a
calibration burst: a fixed kernel of small numpy products, Python
bookkeeping and scattered reads from an array larger than the caches, the
kinds of work the model's inner loops do. A segment's time is scaled by
REF_S over the median of the last few bursts, which reads it at the
reference speed. A change to the program moves the segments and not the
bursts, so it shows in full; a slow spell moves both, and cancels. Burst
time is never counted in a segment.

A segment ends at every `tick()`: the benchmark ticks around each sample it
times, and `ticking()` adds a tick after every call of chosen package
functions, so that long calls such as `stsg gen` or `evaluate` are scaled
piece by piece. README.md shows the scaled and raw spread side by side.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import deque
from time import perf_counter

import numpy as np

# median burst time on the reference machine (a 2-vCPU Xeon guest, numpy 2.4
# with OpenBLAS); a scaled time reads as if measured there at its usual speed
REF_S = 0.85e-3
WINDOW = 5                 # bursts in the running median

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 32))
_B = _rng.standard_normal((32, 32))
_KEYS = list(_rng.random(64))
_BIG = _rng.standard_normal(1 << 20)            # 8 MiB
_IDX = _rng.integers(0, 1 << 20, 4000)


def _kernel() -> float:
    x, acc, trail = _A, 0.0, []
    for i in range(100):
        y = np.maximum(x @ _B, 0.0)
        acc += float(y.sum()) * 1e-9
        trail.append((acc, i))
        x = y * 0.01 + _A
        if i % 10 == 0:
            sorted(_KEYS)
            {j: j for j in range(20)}
    for _ in range(3):
        acc += float(_BIG[_IDX].sum())
    return acc


class Clock:
    """Scaled time: `t0 = clock.tick()` ... `seconds = clock.tick() - t0`."""

    def __init__(self):
        self.recent: deque = deque(maxlen=WINDOW)
        self.bursts: list[float] = []
        for _ in range(WINDOW):
            self._burst()
        self.scaled = 0.0
        self._mark = perf_counter()

    def _burst(self) -> None:
        t0 = perf_counter()
        _kernel()
        d = perf_counter() - t0
        self.recent.append(d)
        self.bursts.append(d)

    def tick(self) -> float:
        """End the current segment; the scaled seconds since the clock began."""
        raw = perf_counter() - self._mark
        self._burst()
        self.scaled += raw * REF_S / statistics.median(self.recent)
        self._mark = perf_counter()
        return self.scaled

    @contextlib.contextmanager
    def ticking(self, targets):
        """Tick after every call of each (module, name) in `targets` while inside.

        The wrappers pass arguments and results through untouched, and the
        original functions are back in place on exit.
        """
        patched = []

        def wrap(original):
            def wrapper(*args, **kwargs):
                try:
                    return original(*args, **kwargs)
                finally:
                    self.tick()
            return wrapper

        try:
            for owner, name in targets:
                original = getattr(owner, name)
                setattr(owner, name, wrap(original))
                patched.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def speed(self) -> float:
        """Machine speed over the run, relative to the reference (1 = as fast)."""
        return REF_S / statistics.median(self.bursts)
