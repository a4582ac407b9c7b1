"""Path serialisation: line-delimited JSON and a compact binary frame.

JSONL layout: a header record followed by the chronologically merged
sample/event records; at an event time the order is pre-jump sample,
event, post-jump sample.  Each line has the bytes of one
``json.JSONEncoder`` call per record.  The writer formats a block of records
at a time in numpy passes and writes its bytes to a binary handle: a float
with 1e-4 <= |v| < 1e15 gets repr's shortest round-trip digits from integer
arithmetic, every other float (0, NaN, the infinities, tiny and huge values)
the encoder's text per value.  The reader takes a binary or a text handle.

    {"kind": "header", "format": "hjsm-jsonl", "version": 1, "M": ...,
     "horizon": ..., "seed": ..., "model_digest": "..."}
    {"kind": "sample", "t": ..., "x": ..., "row_sums": [...]}
    {"kind": "event", "t": ..., "component": ...}

Binary frame (all integers and doubles little-endian)::

    offset  size  field
    0       4     magic b"HJSM"
    4       2     version, u16 (currently 1)
    6       2     reserved, u16 (0)
    8       4     M, u32
    12      4     reserved, u32 (0)
    16      8     n_events, u64
    24      8     n_samples, u64
    32      8     horizon, f64
    40      8     seed, u64
    48      32    model digest, raw sha256 bytes
    80      -     events:  n_events  x { t f64; component u32; pad u32 }
    ...     -     samples: n_samples x { t f64; x f64; row_sums M x f64 }
"""

from __future__ import annotations

import io
import json
import math
import re
import struct
from typing import BinaryIO, TextIO

import numpy as np

from .engine import Path

__all__ = [
    "BINARY_MAGIC",
    "FORMAT_VERSION",
    "write_jsonl",
    "read_jsonl",
    "write_binary",
    "read_binary",
    "dumps_jsonl",
    "dumps_binary",
]

BINARY_MAGIC = b"HJSM"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHII QQ d Q 32s")
_EVENT_DTYPE = np.dtype([("t", "<f8"), ("component", "<u4"), ("pad", "<u4")])
_DIGEST = re.compile("[0-9a-f]{64}")   # a sha256 hexdigest, which the binary frame holds raw


_ENCODER = json.JSONEncoder(separators=(",", ":"))
_BLOCK = 768   # sample records formatted at a time

# 10**k for k in 0..22 is an exact double; Veltkamp's split by 2**27 + 1
# halves each into two 26-bit parts, for Dekker's exact product.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT10 = 10 ** np.arange(19, dtype=np.int64)


def _digit_words() -> np.ndarray:
    """The ASCII digits of 0..9999 as little-endian words of 4 bytes, in four
    variants of 10**4 words each: plain; leading zeros NUL; trailing zeros
    NUL; leading zeros NUL but 0 written as its last digit.  A word is a
    high pair of digits (a row here) and a low pair (a column)."""
    d = np.arange(100, dtype=np.uint32)
    first, second = 48 + d // 10, (48 + d % 10) << 8
    pair = first | second
    lead = first * (d >= 10) | second * (d > 0)
    trail = first * (d > 0) | second * (d % 10 > 0)
    zero = d == 0
    lead_words = lead[:, None] | np.where(zero[:, None], lead, pair) << 16
    words = np.stack([pair[:, None] | pair << 16, lead_words,
                      np.where(zero, trail[:, None], pair[:, None]) | trail << 16, lead_words])
    words[3, 0, 0] = 48 << 24
    return words.ravel()


_WORDS = _digit_words()


def _format_floats(v: np.ndarray, slots: np.ndarray) -> None:
    """Write each float of ``v`` as ``json.JSONEncoder`` does into its row of
    ``slots`` (N x 40 bytes, rows 4-byte aligned), NUL where it has no
    character.

    For 1e-4 <= |v| < 1e15 repr writes fixed notation with the shortest
    digits that read back as v, the nearest to v, ties to even.  These come
    from integers here: with k = 16 - floor(log10 |v|), |v| * 10**k = p + e
    exactly (Dekker's product), p an integer near [1e16, 1e17) and |e| <= 8.
    The digit strings of that scale that read back as v are the integers
    strictly inside (p + e - h_lo, p + e + h), h being half the gap to the
    next double (h_lo half the gap below) scaled by 10**k.  Neither end is an
    integer in this range, and e + h, e - h_lo and e + (p mod 10) are exact.
    The interval is 1.1 to 22 wide, so it holds at most one multiple of 100:
    the shortest digits are that one, else the multiple of 10 nearest p + e,
    else the integer nearest it.  A row is laid out as sign, 15 integer
    places, the point and 20 fraction places, with the leading zeros of the
    integer part and the trailing zeros of the fraction NUL.  Every other
    value (0, NaN, the infinities and the rest) takes the encoder's own text.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 1.0)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    pw = _POW10[k]
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    p = a * pw
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    m, ex = np.frexp(a)
    h = np.ldexp(pw, ex - 54)
    h_lo = np.where(m == 0.5, h * 0.5, h)   # below a power of two the gap halves
    P = p.astype(np.int64)
    lo = P + np.ceil(e - h_lo).astype(np.int64)
    hi = P + np.floor(e + h).astype(np.int64)
    # the multiple of 10 nearest p + e, ties to even.  Where [lo, hi] holds
    # one, only the narrow side below a power of two can miss the nearest.
    q = P // 10
    odd = q & 1
    tens = (q + (np.rint(((P - q * 10) + e) / 10 + odd).astype(np.int64) - odd)) * 10
    tens += 10 * (tens < lo)
    hundred = hi // 100 * 100
    D = np.where(hundred >= lo, hundred,
                 np.where(hi // 10 * 10 >= lo, tens, P + np.rint(e).astype(np.int64)))
    # where log10 missed the decade: D then has 16 or (a multiple of 10) 18 digits
    off = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))
    if len(off):
        big = D[off] >= 10 ** 17
        D[off] = np.where(big, D[off] // 10, D[off] * 10)
        k[off] += 1 - 2 * big
    # v = D / 10**k: its integer part is floor(|v|), F / 10**k its fraction
    whole = np.floor(a).astype(np.int64)
    F = D - whole * _INT10[np.minimum(k, 18)]
    g = _INT10[np.maximum(k - 3, 0)]
    head = F // g
    first3 = head * _INT10[np.maximum(3 - k, 0)]   # fraction places 1..3 (k = 2 has two)
    rest = (F - head * g) * _INT10[20 - k]   # places 4..20
    words, w = _WORDS, np.empty((10, len(v)), np.uint32)   # w: a row per 4 bytes of the slots
    # the fraction from its last place: trailing says every later place is 0
    q = rest // 10
    last = rest - q * 10
    trailing = last == 0
    w[9] = words[20000 + 1000 * last]
    for col in (8, 7, 6, 5):
        rest = q
        q = rest // 10000
        c = rest - q * 10000
        w[col] = words[c + 20000 * trailing]
        trailing &= c == 0
    w[4] = words[first3 + 20000 * trailing] & 0xFFFFFF00 | 46 | (trailing & (first3 == 0)) * 0x3000
    # the integer part from its first place: a word after zeros drops its leading zeros
    i4, i8, i12 = whole // 10000, whole // 10 ** 8, whole // 10 ** 12
    w[0] = words[10000 + i12]
    w[1] = words[i8 - i12 * 10000 + 10000 * (i12 == 0)]
    w[2] = words[i4 - i8 * 10000 + 10000 * (i8 == 0)]
    w[3] = words[whole - i4 * 10000 + 30000 * (i4 == 0)]
    slots.view("<u4")[:] = w.T
    slots[:, 0] = np.signbit(v).view(np.uint8) * np.uint8(45)
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = np.array([_ENCODER.encode(x) for x in v[slow].tolist()], "S40")
        slots[slow] = texts.view(np.uint8).reshape(-1, 40)


_CELL = 64   # bytes per float of a line: 24 for the text before it, then its slot


def _jsonl_blocks(path: Path):
    """The JSONL bytes of ``path``: the header line, then the merged records in
    blocks of ``_BLOCK`` samples and the events among them.  The text equals
    one ``json.JSONEncoder`` call per record.

    A block is one byte matrix with a row per line and a cell per float:
    the text before the float, NUL padded, then its slot from
    :func:`_format_floats`.  An event row holds its time in the first cell
    and its component in the second.  One pass formats the block's floats:
    each line's time, then each sample's x and row sums, so an event row
    formats no float for its other cells.  The block's bytes are the matrix
    without its NUL bytes."""
    yield (_ENCODER.encode({"kind": "header", "format": "hjsm-jsonl", "version": FORMAT_VERSION,
                            "M": path.n_components, "horizon": path.horizon, "seed": path.seed,
                            "model_digest": path.model_hash}) + "\n").encode()
    st, sx, rs, et = path.skeleton_times, path.skeleton_x, path.skeleton_row_sums, path.event_times
    comp = path.event_components
    m = path.n_components
    width = m + 2
    before = np.array([b'{"kind":"sample","t":', b',"x":', b',"row_sums":['] + [b","] * (m - 1),
                      "S24").view(np.uint8).reshape(width, 24)
    event_t = np.frombuffer(b'{"kind":"event","t":'.ljust(24, b"\0"), np.uint8)
    components = np.array([b',"component":%d}\n' % c for c in range(1, m + 1)],
                          f"S{_CELL}").view(np.uint8).reshape(m, _CELL)
    n, j0 = len(st), 0
    for a in range(0, max(n, 1), _BLOCK):
        b = min(a + _BLOCK, n)
        # event j follows the first ins[j] samples: those before it, then its
        # pre-jump sample if one has its time.  Event times increase and
        # skeleton times do not decrease, so no event precedes an earlier
        # one's samples, and this block's events are among those at or
        # before its last sample.
        j1 = int(np.searchsorted(et, st[b - 1], "right")) if b < n else len(et)
        ins = np.searchsorted(st, et[j0:j1])
        hit = ins < n
        ins[hit] += st[ins[hit]] == et[j0:j1][hit]
        if b < n:
            j1 = j0 + int(np.searchsorted(ins, b))
            ins = ins[:j1 - j0]
        rows = ins - a + np.arange(j1 - j0)   # each event's line in the block
        sample = np.ones(b - a + j1 - j0, bool)
        sample[rows] = False
        k = len(sample)
        v = np.empty(k + (b - a) * (m + 1))   # each line's time, then each sample's x and row sums
        v[:k][sample] = st[a:b]
        v[:k][rows] = et[j0:j1]
        xs = v[k:].reshape(b - a, m + 1)
        xs[:, 0] = sx[a:b]
        xs[:, 1:] = rs[a:b]
        slots = np.empty((len(v), 40), np.uint8)
        _format_floats(v, slots)
        cells = np.empty((k, width, _CELL), np.uint8)
        cells[:, 0, 24:] = slots[:k]
        cells[sample, 1:, 24:] = slots[k:].reshape(b - a, m + 1, 40)
        cells[:, :, :24] = before
        cells[:, -1, -3:] = np.frombuffer(b"]}\n", np.uint8)   # no float's text reaches here
        cells[rows, 0, :24] = event_t
        cells[rows, 1:] = 0
        cells[rows, 1] = components[comp[j0:j1] - 1]
        j0 = j1
        text = cells.reshape(-1)
        yield text[text != 0].tobytes()


def write_jsonl(path: Path, fh: BinaryIO) -> None:
    fh.writelines(_jsonl_blocks(path))


def _num(v) -> bool:
    """A JSON number a float holds: not a bool, str, null or too large an integer."""
    return type(v) is float or type(v) is int and abs(v) < 1e308


def _horizon(v) -> bool:
    """A horizon a path can have: a finite number >= 0."""
    return _num(v) and math.isfinite(v) and v >= 0


def _record(text: bytes | str, line: int) -> dict:
    try:
        rec = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"line {line}: not JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError(f"line {line}: not a JSON object")
    return rec


def read_jsonl(fh: BinaryIO | TextIO) -> Path:
    """The path a :func:`write_jsonl` stream holds, read from a binary or a
    text handle; a malformed stream is a ValueError naming its 1-based line."""
    header = _record(fh.readline(), 1)
    m, seed, digest = header.get("M"), header.get("seed"), header.get("model_digest")
    if not (header.get("kind") == "header" and header.get("format") == "hjsm-jsonl"
            and type(header.get("version")) is int and header["version"] == FORMAT_VERSION
            and type(m) is int and m > 0 and _horizon(header.get("horizon"))
            and type(seed) is int and 0 <= seed < 2 ** 64
            and type(digest) is str and _DIGEST.fullmatch(digest)):
        raise ValueError(f"line 1: not a path JSONL header of version {FORMAT_VERSION} with an "
                         "integer M > 0, a finite horizon >= 0, an integer seed in "
                         "0..2**64 - 1 and a model_digest of 64 lowercase hex digits")
    events, samples = [], []
    for line, text in enumerate(fh, 2):
        if not text.strip():
            continue
        rec = _record(text, line)
        kind, t = rec.get("kind"), rec.get("t")
        if kind == "event":
            c = rec.get("component")
            if not (_num(t) and type(c) is int and 1 <= c <= m):
                raise ValueError(f"line {line}: an event needs a number t and an integer "
                                 f"component in 1..{m}")
            events.append((t, c))
        elif kind == "sample":
            x, rs = rec.get("x"), rec.get("row_sums")
            if not (_num(t) and _num(x) and type(rs) is list and len(rs) == m
                    and all(map(_num, rs))):
                raise ValueError(f"line {line}: a sample needs numbers t and x and a list "
                                 f"row_sums of M = {m} numbers")
            samples.append((t, x, *rs))
        else:
            raise ValueError(f"line {line}: unknown record kind {kind!r}")
    ev = np.array(events, dtype=float).reshape(-1, 2)
    sk = np.array(samples, dtype=float).reshape(-1, 2 + m)
    return Path(event_times=ev[:, 0], event_components=ev[:, 1].astype(np.int32),
                skeleton_times=sk[:, 0], skeleton_x=sk[:, 1], skeleton_row_sums=sk[:, 2:],
                horizon=float(header["horizon"]), seed=seed, model_hash=digest)


def write_binary(path: Path, fh: BinaryIO) -> None:
    fh.write(_HEADER.pack(BINARY_MAGIC, FORMAT_VERSION, 0, path.n_components, 0,
                          path.n_events, len(path.skeleton_times), path.horizon,
                          path.seed, bytes.fromhex(path.model_hash)))
    events = np.zeros(path.n_events, dtype=_EVENT_DTYPE)
    events["t"] = path.event_times
    events["component"] = path.event_components
    fh.write(events)
    samples = np.column_stack([path.skeleton_times, path.skeleton_x, path.skeleton_row_sums])
    fh.write(np.asarray(samples, "<f8"))   # through the buffer, a copy only on big-endian


def read_binary(fh: BinaryIO) -> Path:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated binary path file")
    magic, version, _, m, _, n_events, n_samples, horizon, seed, digest = _HEADER.unpack(raw)
    if magic != BINARY_MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a binary path file")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    if not _horizon(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")
    width = 2 + m
    event_bytes = n_events * _EVENT_DTYPE.itemsize
    expected = event_bytes + n_samples * width * 8
    body = fh.read()
    if len(body) != expected:
        problem = "truncated" if len(body) < expected else "trailing bytes in"
        raise ValueError(
            f"{problem} binary path body: the header's {n_events} events and {n_samples} "
            f"samples (M = {m}) need {expected} bytes, the stream holds {len(body)}")
    events = np.frombuffer(body, dtype=_EVENT_DTYPE, count=n_events)
    samples = np.frombuffer(body, dtype="<f8", offset=event_bytes).reshape(n_samples, width)
    return Path(
        event_times=np.array(events["t"], dtype=float),
        event_components=np.array(events["component"], dtype=np.int32),
        skeleton_times=np.array(samples[:, 0]),
        skeleton_x=np.array(samples[:, 1]),
        skeleton_row_sums=np.array(samples[:, 2:]),
        horizon=float(horizon),
        seed=int(seed),
        model_hash=digest.hex(),
    )


def dumps_jsonl(path: Path) -> bytes:
    # getvalue hands over the BytesIO's own buffer: the text is held once
    buf = io.BytesIO()
    write_jsonl(path, buf)
    return buf.getvalue()


def dumps_binary(path: Path) -> bytes:
    buf = io.BytesIO()
    write_binary(path, buf)
    return buf.getvalue()
