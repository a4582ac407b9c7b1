"""Counter-based random streams for reproducible, splittable simulation.

Each path owns a Philox4x64-10 stream keyed by a 64-bit seed; ensemble path
i uses ``derive_path_seed(master_seed, i)`` so serial and parallel runs
consume identical draws.  A uniform is the top 53 bits of one 64-bit word
mapped into (0, 1] (the top word gives 1.0), and a normal is the inverse CDF
of one uniform, :func:`ndtri`: Cephes' algorithm in numpy, with the bits of
``scipy.special.ndtri``.  Philox is counter-based (Salmon et al., SC'11):
draw d is lane d % 4 of the block the key makes of counter d // 4 + 1, so
buffering never changes a stream.

Every draw is read by ``_words_at(key, d, n)``: one C Philox per thread,
set to draw d of the stream keyed by ``key``, reads n words.  So no stream
holds a generator object, and threads never share a positioned one.  A
:class:`RandomStream` holds its key, the draw index after its buffer and
the buffer, refilled ``_BLOCK`` draws at a time (more for a longer read).

A :class:`DrawBank` holds a group's streams as rows of one matrix of
buffered uniforms, addressed by (key, draw index): one draw for many rows
is a single gather, and each row that runs out is refilled on its own.
"""

from __future__ import annotations

import threading

import numpy as np

from .model import _log_each

__all__ = ["mix64", "derive_path_seed", "derive_path_seeds", "RandomStream", "DrawBank", "ndtri"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1024
_BANK_DRAWS = 1 << 14
# DrawBank rows refilled per batch, so that a wide bank's first fill holds
# no bank-sized temporaries.  The first fill of a 1000-row bank (64 draws a
# row, buffer already touched) in one batch raised ru_maxrss by 1.76-1.88
# MB; in batches of 64 rows by 0-0.25 MB, with every draw the same.
_REFILL_ROWS = 64
_INV53 = 2.0 ** -53
# Cephes' ndtri (S. L. Moshier), as scipy.special.ndtri runs it: rational P/Q in y^2 about
# the centre, and in 1/x for the tails, one below x = 8 and one beyond; Q's leading 1 is left out.
_S2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189   # exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# values per ndtri block (a whole-array call held 6.8 MB for 64 EM paths of 10^4 steps)
_NDTRI_BLOCK = 1 << 14


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
    """Philox words as uniforms in (0, 1], from the top 53 bits as
    ``integers(0, 2**53)``: (2**53 - 1) + 0.5 rounds to 2**53, so a word
    whose top 53 bits are all set gives exactly 1.0."""
    return ((words >> 11) + 0.5) * _INV53


def _ratio(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x * P(x) / Q(x) in Cephes' order: P and Q by Horner's rule from their
    leading coefficient (``polevl``), Q's being 1 (``p1evl``)."""
    a, b = np.full_like(x, p[0]), x + q[0]
    for acc, coefs in ((a, p[1:]), (b, q[1:])):
        for k in coefs:
            acc *= x
            acc += k
    a *= x
    a /= b
    return a


def ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal quantile of each value of ``u``, a 1-D array in
    (0, 1], bit for bit as ``scipy.special.ndtri``: Cephes' branches and
    operations, with libm's log.  ``out`` may be ``u`` itself; the values go
    ``_NDTRI_BLOCK`` at a time.  1.0 gives +inf."""
    out = np.empty_like(u) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):   # log(0) at u = 1.0
        for at in range(0, len(u), _NDTRI_BLOCK):
            y = u[at:at + _NDTRI_BLOCK]
            upper = y > 1.0 - _EXP_M2
            t = np.where(upper, 1.0 - y, y)
            c = t - 0.5
            x = (c + c * _ratio(c * c, _P0, _Q0)) * _S2PI   # the centre, t > exp(-2)
            tail = np.flatnonzero(t <= _EXP_M2)
            r = np.sqrt(-2.0 * _log_each(t[tail]))
            z, far = 1.0 / r, np.flatnonzero(r >= 8.0)
            z1 = _ratio(z, _P1, _Q1)
            z1[far] = _ratio(z[far], _P2, _Q2)
            r -= _log_each(r) / r
            r -= z1
            x[tail] = np.where(upper[tail], r, -r)
            x[y == 1.0] = np.inf
            out[at:at + _NDTRI_BLOCK] = x
    return out


class RandomStream:
    """Buffered uniform and normal draws from one Philox stream."""

    __slots__ = ("seed", "_key", "_end", "_buf", "_pos")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key = _key(self.seed)
        self._buf, self._pos, self._end = np.empty(0), 0, 0   # _end: the draw after _buf

    def _refill(self, need: int = 1) -> None:
        self._buf = _uniforms(_words_at(self._key, self._end, max(_BLOCK, need)))
        self._end += len(self._buf)
        self._pos = 0

    def uniform(self) -> float:
        """One uniform draw in (0, 1]."""
        if self._pos >= len(self._buf):
            self._refill()
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws in (0, 1]: the values of n calls to :meth:`uniform`,
        often as a view of the buffer's values already read, which the
        stream never reads again."""
        start = self._pos
        if start + n <= len(self._buf):
            self._pos = start + n
            return self._buf[start:start + n]
        head = self._buf[start:]
        self._refill(n - len(head))
        self._pos = n - len(head)
        return np.concatenate((head, self._buf[:self._pos]))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals, the inverse CDF of n uniforms."""
        return ndtri(self.uniforms(n))


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
        width = min(_BLOCK, max(64, _BANK_DRAWS // len(seeds)))
        self.buf = np.empty((len(seeds), width))
        self.pos = np.full(len(seeds), width)
        self.ends = np.zeros(len(seeds), dtype=np.int64)

    def uniforms(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each of ``rows`` (distinct row indices)."""
        width = self.buf.shape[1]
        pos = self.pos[rows]
        low = pos == width
        if low.any():
            k = rows[low]
            start = self.ends[k]   # each row's next draw
            for a in range(0, len(k), _REFILL_ROWS):
                part = slice(a, a + _REFILL_ROWS)
                self.buf[k[part]] = _uniforms(np.stack(
                    [_words_at(self.keys[r], d, width)
                     for r, d in zip(k[part].tolist(), start[part].tolist())]))
            self.ends[k] = start + width
            pos[low] = 0
        self.pos[rows] = pos + 1
        return self.buf[rows, pos]

    def take(self, k: int, n: int) -> np.ndarray:
        """The next n uniforms of row k, as a view of the row when they fit in
        it: valid until the row's next draw."""
        start = int(self.pos[k])
        have = self.buf.shape[1] - start
        if n <= have:
            self.pos[k] = start + n
            return self.buf[k, start:start + n]
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
        out.seed = self.seeds[k]
        out._key, out._end = self.keys[k], int(self.ends[k])
        out._buf, out._pos = self.buf[k, self.pos[k]:].copy(), 0
        return out
