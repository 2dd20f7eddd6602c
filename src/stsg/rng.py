"""Deterministic counter-based random streams.

Built on numpy's Philox generator: the (seed, stream) pair keys the
counter, so identical seeds reproduce identical sequences on any platform
and independent streams can be split off for parallel sequence generation
without coordination.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_MASK64 = (1 << 64) - 1


class RngStream:
    """Seeded random stream; all draws advance an internal counter."""

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = ((self.stream & _MASK64) << 64) | (self.seed & _MASK64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "RngStream":
        """Independent child stream; children of distinct indices never collide."""
        return RngStream(self.seed, self.stream * 1_000_003 + int(index) + 1)

    def uniform(self, a: float = 0.0, b: float = 1.0) -> float:
        if not b > a:
            raise ContractError(f"uniform: need b > a, got a={a}, b={b}")
        return float(self._gen.uniform(a, b))

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if sigma < 0:
            raise ContractError(f"normal: need sigma >= 0, got {sigma}")
        return float(self._gen.normal(mu, sigma))

    def uniform_array(self, shape, a: float = 0.0, b: float = 1.0) -> np.ndarray:
        if not b > a:
            raise ContractError(f"uniform: need b > a, got a={a}, b={b}")
        return self._gen.uniform(a, b, size=shape)

    def normal_array(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        if sigma < 0:
            raise ContractError(f"normal: need sigma >= 0, got {sigma}")
        return self._gen.normal(mu, sigma, size=shape)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ContractError(f"integer: need n >= 1, got {n}")
        return int(self._gen.integers(0, n))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"
