"""Counter-based random streams for reproducible, splittable simulation.

Each path owns a Philox4x64-10 stream keyed by a 64-bit seed; ensemble path
i uses ``derive_path_seed(master_seed, i)`` so serial and parallel runs
consume identical draws.  A uniform is the top 53 bits of one 64-bit word
mapped into (0, 1), and a normal is the inverse CDF of one uniform.  Philox
is counter-based (Salmon et al., SC'11): draw d is lane d % 4 of the block
the key makes of counter d // 4 + 1, so buffering never changes a stream.

Every draw is read by ``_words_at(key, d, n)``: one C Philox per thread,
set to draw d of the stream keyed by ``key``, reads n words.  So no stream
holds a generator object, and threads never share a positioned one.  A
:class:`RandomStream` holds its key, the draw index after its buffer and
the buffer, read in blocks that double from ``_FIRST_BLOCK`` to ``_BLOCK``.

A :class:`DrawBank` holds a group's streams as rows of one matrix of
buffered uniforms, addressed by (key, draw index): one draw for many rows
is a single gather, and each row that runs out is refilled on its own.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import ndtri

__all__ = ["mix64", "derive_path_seed", "derive_path_seeds", "RandomStream", "DrawBank"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 64
_BLOCK = 1024
_BANK_DRAWS = 1 << 14
# DrawBank rows refilled per batch, so that a wide bank's first fill holds
# no bank-sized temporaries.  The first fill of a 1000-row bank (64 draws a
# row, buffer already touched) in one batch raised ru_maxrss by 1.76-1.88
# MB; in batches of 64 rows by 0-0.25 MB, with every draw the same.
_REFILL_ROWS = 64
_INV53 = 2.0 ** -53


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


def _key(seed):
    """The Philox key of the stream (or, for a uint64 array, the streams) of ``seed``."""
    return mix64(seed), mix64(seed ^ _GOLDEN)


class _PerThread(threading.local):
    def __init__(self):   # on a thread's first read
        self.philox = np.random.Philox(0)


_THREAD = _PerThread()


def _words_at(key, d: int, n: int) -> np.ndarray:
    """Words d .. d + n - 1 of the Philox stream keyed by ``key``: this
    thread's C Philox at counter d // 4 with an empty buffer, less d % 4 words."""
    bitgen = _THREAD.philox
    bitgen.state = {"bit_generator": "Philox", "state": {"counter": (d >> 2, 0, 0, 0), "key": key},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bitgen.random_raw((d & 3) + n)[d & 3:]


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Philox words as uniforms in (0, 1), from the top 53 bits as ``integers(0, 2**53)``."""
    return ((words >> 11) + 0.5) * _INV53


class RandomStream:
    """Buffered uniform/normal/exponential draws from one Philox stream."""

    __slots__ = ("seed", "_key", "_end", "_buf", "_pos", "_block")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key = _key(self.seed)
        self._buf, self._pos, self._end = np.empty(0), 0, 0   # _end: the draw after _buf
        self._block = _FIRST_BLOCK

    def _refill(self, need: int = 1) -> None:
        self._buf = _uniforms(_words_at(self._key, self._end, max(self._block, need)))
        self._end += len(self._buf)
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
    and ``ends[k]`` is the draw index after row k's buffer; a row that runs
    out is refilled from its key and its next draw.
    """

    __slots__ = ("seeds", "keys", "buf", "pos", "ends")

    def __init__(self, seeds: list[int]):
        self.seeds = [int(s) & _MASK64 for s in seeds]
        s = np.array(self.seeds, dtype=np.uint64)
        self.keys = np.stack(_key(s), axis=1).tolist()
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
        low = pos > width - n
        if low.any():
            k = rows[low]
            start = self.ends[k] - width + pos[low]   # each row's next draw
            for a in range(0, len(k), _REFILL_ROWS):
                part = slice(a, a + _REFILL_ROWS)
                self.buf[k[part]] = _uniforms(np.stack(
                    [_words_at(self.keys[r], d, width)
                     for r, d in zip(k[part].tolist(), start[part].tolist())]))
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
        # one read for the shortfall and a full row after it
        more = _uniforms(_words_at(self.keys[k], int(self.ends[k]), start + n))
        out = np.concatenate((self.buf[k, start:], more[:n - have]))
        self.buf[k] = more[n - have:]
        self.ends[k] += len(more)
        self.pos[k] = 0
        return out

    def stream(self, k: int) -> RandomStream:
        """Row k as a :class:`RandomStream` that continues from its position."""
        out = RandomStream.__new__(RandomStream)
        out.seed, out._block = self.seeds[k], _BLOCK
        out._key, out._end = self.keys[k], int(self.ends[k])
        out._buf, out._pos = self.buf[k, self.pos[k]:].copy(), 0
        return out
