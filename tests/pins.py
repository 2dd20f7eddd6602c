"""Pins of float arrays that hold on any x86-64 host.

OpenBLAS picks its kernels by CPU when it loads, and kernels for other
CPUs sum dot products in another order, which moves the last bits of
trained parameters and of every float served from them. A pin is
therefore not a digest of bytes but a few numbers: the array's largest
magnitude and PIN_PROJECTIONS fixed seeded projections of it, each summed
exactly (`math.fsum`), so that no BLAS computes them. Every weight has a
magnitude in [1, 2) and a random sign.

A value agrees with its pin when each of these numbers is within
PIN_RTOL times the pinned largest magnitude. The tolerance is relative to
the array's scale, not to each projection, which sums thousands of terms:
moving any one entry within a tenth of the largest by 1e-8 of itself moves
every projection by more than the tolerance, while differences of 1e-14 in
each entry move them far less.
"""

import math

import numpy as np

from stsg.rng import RngStream

PIN_RTOL = 1e-9
PIN_PROJECTIONS = 3
PIN_STREAM = 29


def value_pin(values) -> tuple[float, ...]:
    """The largest magnitude of `values`, flattened, then its projections."""
    x = np.asarray(values, dtype=np.float64).ravel()
    rng = RngStream(len(x), PIN_STREAM)
    weights = rng.uniform_array((PIN_PROJECTIONS, len(x)), 1.0, 2.0)
    weights[rng.uniform_array(weights.shape) < 0.5] *= -1.0
    return (float(np.max(np.abs(x), initial=0.0)), *(math.fsum(w * x) for w in weights))


def pin_text(pin) -> str:
    """A pin as its source text, 15 significant digits a number."""
    return "(" + ", ".join(f"{v:.15g}" for v in pin) + ")"


def agrees(values, pin) -> bool:
    """Whether `values` agrees with `pin` (`value_pin`) within PIN_RTOL of
    its pinned largest magnitude."""
    got = value_pin(values)
    return len(got) == len(pin) and all(abs(g - p) <= PIN_RTOL * pin[0]
                                        for g, p in zip(got, pin))
