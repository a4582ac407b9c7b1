"""Counter-based random streams for reproducible, splittable simulation.

Each path owns a Philox stream keyed by a 64-bit seed; ensemble path i uses
``derive_path_seed(master_seed, i)`` so serial and parallel runs consume
identical draws.  Uniforms come from 53-bit integers mapped into the open
interval (0, 1); normals are obtained by inverse-CDF so one uniform yields
exactly one normal.  Draws are buffered in blocks, which only amortises the
generator call overhead and does not change the stream.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["mix64", "derive_path_seed", "RandomStream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1024
_INV53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finaliser; a bijective mix on 64-bit integers."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Per-path 64-bit seed; distinct indices give decorrelated streams."""
    if path_index < 0:
        raise ValueError("path_index must be >= 0")
    return mix64((master_seed & _MASK64) + ((path_index + 1) * _GOLDEN & _MASK64))


class RandomStream:
    """Buffered uniform/normal/exponential draws from one Philox stream."""

    __slots__ = ("seed", "_gen", "_buf", "_pos")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        key = np.array([mix64(self.seed), mix64(self.seed ^ _GOLDEN)], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._buf = np.empty(0)
        self._pos = 0

    def _refill(self, n: int = _BLOCK) -> None:
        raw = self._gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
        self._buf = (raw + 0.5) * _INV53
        self._pos = 0

    def uniform(self) -> float:
        """One uniform draw in the open interval (0, 1)."""
        if self._pos >= len(self._buf):
            self._refill()
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws in (0, 1): the values of n calls to :meth:`uniform`."""
        start = self._pos
        if start + n <= len(self._buf):
            self._pos = start + n
            return self._buf[start:start + n].copy()
        head = self._buf[start:]
        self._refill(max(_BLOCK, n - len(head)))
        self._pos = n - len(head)
        return np.concatenate((head, self._buf[:self._pos]))

    def normal(self) -> float:
        """One standard normal via the inverse CDF."""
        return float(ndtri(self.uniform()))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals: the values of n calls to :meth:`normal`."""
        return ndtri(self.uniforms(n))

    def exponential(self, rate: float) -> float:
        """One exponential draw with the given rate (mean 1/rate)."""
        return -np.log(self.uniform()) / rate
