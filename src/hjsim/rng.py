"""Counter-based random streams for reproducible, splittable simulation.

Each path owns a Philox4x64-10 stream keyed by a 64-bit seed; ensemble path
i uses ``derive_path_seed(master_seed, i)`` so serial and parallel runs
consume identical draws.  A uniform is the top 53 bits of one 64-bit word
mapped into (0, 1), and a normal is the inverse CDF of one uniform.  Philox
is counter-based (Salmon et al., SC'11): draw d is lane d % 4 of the block
the key makes of counter d // 4 + 1, so buffering never changes a stream.
A :class:`RandomStream` draws from numpy's C Philox, the fastest per draw
for one long stream, in blocks that double from ``_FIRST_BLOCK`` to
``_BLOCK``; ``_generator`` builds it and is the oracle for the rest.

A :class:`DrawBank` holds a group's streams as rows of one matrix of
buffered uniforms, addressed by (key, draw index) with no generator object
per row: one draw for many rows is a single gather, and the rows that run
low are refilled together by a vectorised numpy Philox kernel (``_philox``,
``_KERNEL_WORDS`` words a call).  A row's long block of normals and a path
that leaves the group draw from a C Philox set to its key and draw index.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["mix64", "derive_path_seed", "derive_path_seeds", "RandomStream", "DrawBank"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 64
_BLOCK = 1024
_BANK_DRAWS = 1 << 14
_INV53 = 2.0 ** -53
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64's multipliers and key increments, along the kernel's first axis
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_KERNEL_WORDS = 1 << 11   # bounds a kernel call's temporaries at about 150 KB


def mix64(z):
    """splitmix64 finaliser; a bijective mix on 64-bit ints or uint64 arrays."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Per-path 64-bit seed; distinct indices give decorrelated streams."""
    if path_index < 0:
        raise ValueError("path_index must be >= 0")
    return mix64((master_seed & _MASK64) + ((path_index + 1) * _GOLDEN & _MASK64))


def derive_path_seeds(master_seed: int, n: int) -> np.ndarray:
    """``derive_path_seed(master_seed, i)`` for i < n, as a uint64 array."""
    return mix64(np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN + (master_seed & _MASK64))


def _generator(seed: int) -> np.random.Generator:
    """The Philox generator of the stream keyed by a 64-bit seed."""
    key = np.array([mix64(seed), mix64(seed ^ _GOLDEN)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Philox words as uniforms in (0, 1), from the top 53 bits as ``integers(0, 2**53)``."""
    return ((words >> 11) + 0.5) * _INV53


def _philox(keys: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """The n words from word ``start[r]`` on of ``Philox(key=keys[r])``, per row r.

    A round multiplies lanes 0 and 2 into lanes 1 and 3, so the lanes are held as
    (2, rows, blocks) arrays ``even`` = (c0, c2) and ``odd`` = (c1, c3) to share a multiply.
    """
    shape = (2, len(keys), (n + 6) // 4)   # the blocks n words span from any lane
    even, odd = np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.uint64)
    even[0] = ((start >> 2) + 1).astype(np.uint64)[:, None] + np.arange(shape[2], dtype=np.uint64)
    m, key, bump = (np.broadcast_to(c, shape).copy()   # full shapes run fastest
                    for c in (_PHILOX_M, keys.T[:, :, None], _PHILOX_W))
    m_lo, m_hi = m & _LOW32, m >> _32
    for _ in range(10):
        # the high words of even * m, from 32-bit halves so no partial sum overflows
        a_lo, a_hi = even & _LOW32, even >> _32
        t = a_hi * m_lo + ((a_lo * m_lo) >> _32)
        hi = a_hi * m_hi + (t >> _32) + (((t & _LOW32) + a_lo * m_hi) >> _32)
        # (c0, c1, c2, c3) <- (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, (even * m)[::-1]
        key += bump
    words = np.stack((even, odd), axis=3).transpose(1, 2, 0, 3).reshape(len(keys), -1)
    return np.take_along_axis(words, (start & 3)[:, None] + np.arange(n), axis=1)


def _philox_at(key: np.ndarray, d: int) -> np.random.Philox:
    """numpy's C Philox with ``key`` at draw d: counter d // 4, d % 4 words read."""
    bitgen = np.random.Philox(key=key, counter=d >> 2)
    bitgen.random_raw(d & 3)
    return bitgen


class RandomStream:
    """Buffered uniform/normal/exponential draws from one Philox stream."""

    __slots__ = ("seed", "_bits", "_buf", "_pos", "_block")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._bits = _generator(self.seed).bit_generator
        self._buf = np.empty(0)
        self._pos = 0
        self._block = _FIRST_BLOCK

    def _refill(self, need: int = 1) -> None:
        self._buf = _uniforms(self._bits.random_raw(max(self._block, need)))
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

    Uniforms wait in a ``(rows, width)`` matrix with one position per row,
    and ``ends[k]`` is the draw index after row k's buffer; rows that run out
    are refilled together from their keys and draw indices.
    """

    __slots__ = ("seeds", "keys", "buf", "pos", "ends")

    def __init__(self, seeds: list[int]):
        self.seeds = [int(s) & _MASK64 for s in seeds]
        s = np.array(self.seeds, dtype=np.uint64)
        self.keys = np.stack((mix64(s), mix64(s ^ _GOLDEN)), axis=1)   # as _generator's
        # About _BANK_DRAWS buffered draws in all: 64 per row for a wide
        # group (of short paths, since long grids make groups narrow), up
        # to a full block per row for a narrow one.
        width = min(_BLOCK, max(_FIRST_BLOCK, _BANK_DRAWS // len(seeds)))
        self.buf = np.empty((len(seeds), width))
        self.pos = np.full(len(seeds), width)
        self.ends = np.zeros(len(seeds), dtype=np.int64)

    def uniforms(self, rows: np.ndarray, n: int = 1) -> list[np.ndarray]:
        """The next n uniforms of each of ``rows`` (distinct row indices):
        draw i of every row is array i of the list."""
        width = self.buf.shape[1]
        pos = self.pos[rows]
        if (pos > width - n).any():
            # refill, from its next draw, each row past half its buffer with
            # the rows that run out, so that refills come in fewer kernel calls
            low = pos > min(width - n, width // 2)
            k = rows[low]
            start = self.ends[k] - width + pos[low]
            step = max(1, _KERNEL_WORDS // width)   # rows per kernel call
            for a in range(0, len(k), step):
                self.buf[k[a:a + step]] = _uniforms(_philox(self.keys[k[a:a + step]],
                                                            start[a:a + step], width))
            self.ends[k] = start + width
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
        # one C Philox call for the shortfall and a full row after it
        more = _uniforms(_philox_at(self.keys[k], int(self.ends[k])).random_raw(start + n))
        out = np.concatenate((self.buf[k, start:], more[:n - have]))
        self.buf[k] = more[n - have:]
        self.ends[k] += len(more)
        self.pos[k] = 0
        return out

    def stream(self, k: int) -> RandomStream:
        """Row k as a :class:`RandomStream` that continues from its position."""
        out = RandomStream.__new__(RandomStream)
        out.seed, out._block = self.seeds[k], _BLOCK
        out._bits = _philox_at(self.keys[k], int(self.ends[k]))
        out._buf, out._pos = self.buf[k, self.pos[k]:].copy(), 0
        return out
