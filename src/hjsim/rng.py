"""Counter-based random streams for reproducible, splittable simulation.

Each path owns a Philox stream keyed by a 64-bit seed; ensemble path i uses
``derive_path_seed(master_seed, i)`` so serial and parallel runs consume
identical draws.  Uniforms come from 53-bit integers mapped into the open
interval (0, 1); normals are obtained by inverse-CDF so one uniform yields
exactly one normal.  Draws are buffered in blocks, which only amortises the
generator call overhead and does not change the stream: every 53-bit draw
takes one 64-bit word of the generator, so draws taken in any blocks equal
one block of the same total size.  A stream's first block is small (most
ensemble paths are short) and the blocks double up to ``_BLOCK``.

A :class:`DrawBank` holds the streams of a group of paths that advance
together: a matrix of buffered uniforms with one position per row, so that
one draw for each of many rows is a single gather.  A row's block of
normals is ``ndtri`` of :meth:`DrawBank.take`, and a path that leaves the
group continues from :meth:`DrawBank.stream`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["mix64", "derive_path_seed", "RandomStream", "DrawBank"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 64
_BLOCK = 1024
_BANK_DRAWS = 1 << 14
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


def _generator(seed: int) -> np.random.Generator:
    """The Philox generator of the stream keyed by a 64-bit seed."""
    key = np.array([mix64(seed), mix64(seed ^ _GOLDEN)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(gen: np.random.Generator, n: int) -> np.ndarray:
    """The next n uniforms in (0, 1) of ``gen``: one 64-bit word per draw."""
    return (gen.integers(0, 1 << 53, size=n, dtype=np.uint64) + 0.5) * _INV53


class RandomStream:
    """Buffered uniform/normal/exponential draws from one Philox stream."""

    __slots__ = ("seed", "_gen", "_buf", "_pos", "_block")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = _generator(self.seed)
        self._buf = np.empty(0)
        self._pos = 0
        self._block = _FIRST_BLOCK

    def _refill(self, need: int = 1) -> None:
        self._buf = _draw(self._gen, max(self._block, need))
        self._pos = 0
        self._block = min(2 * self._block, _BLOCK)

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
        self._refill(n - len(head))
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


class DrawBank:
    """The streams of a group of paths: row k continues
    ``RandomStream(seeds[k])`` draw for draw.

    Uniforms wait in a ``(rows, width)`` matrix with one position per row;
    a row that runs out is refilled from its own generator, so the rows of
    a group stay independent streams while one draw for each of many rows
    is a single gather.
    """

    __slots__ = ("seeds", "gens", "buf", "pos")

    def __init__(self, seeds: list[int]):
        self.seeds = [int(s) & _MASK64 for s in seeds]
        self.gens = [_generator(s) for s in self.seeds]
        # About _BANK_DRAWS buffered draws in all: 64 per row for a wide
        # group (of short paths, since long grids make groups narrow), up
        # to a full block per row for a narrow one.
        width = min(_BLOCK, max(_FIRST_BLOCK, _BANK_DRAWS // len(seeds)))
        self.buf = np.empty((len(seeds), width))
        self.pos = np.full(len(seeds), width)

    def uniforms(self, rows: np.ndarray, n: int = 1) -> list[np.ndarray]:
        """The next n uniforms of each of ``rows`` (distinct row indices):
        draw i of every row is array i of the list."""
        width = self.buf.shape[1]
        pos = self.pos[rows]
        low = pos > width - n
        if low.any():
            # refill behind the draws a row has left, which move to its front
            for k, p in zip(rows[low].tolist(), pos[low].tolist()):
                self.buf[k] = np.concatenate((self.buf[k, p:], _draw(self.gens[k], p)))
            pos[low] = 0
        self.pos[rows] = pos + n
        return [self.buf[rows, pos + i] for i in range(n)]

    def unread(self, rows: np.ndarray) -> None:
        """Return the last draw :meth:`uniforms` took for each of ``rows``."""
        self.pos[rows] -= 1

    def take(self, k: int, n: int) -> np.ndarray:
        """The next n uniforms of row k."""
        start = int(self.pos[k])
        have = self.buf.shape[1] - start
        if n <= have:
            self.pos[k] = start + n
            return self.buf[k, start:start + n].copy()
        # one generator call for the shortfall and a full row after it
        more = _draw(self.gens[k], n - have + self.buf.shape[1])
        out = np.concatenate((self.buf[k, start:], more[:n - have]))
        self.buf[k] = more[n - have:]
        self.pos[k] = 0
        return out

    def stream(self, k: int) -> RandomStream:
        """Row k as a :class:`RandomStream` that continues from its position."""
        out = RandomStream.__new__(RandomStream)
        out.seed, out._gen, out._block = self.seeds[k], self.gens[k], _BLOCK
        out._buf, out._pos = self.buf[k, self.pos[k]:].copy(), 0
        return out

