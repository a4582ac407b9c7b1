"""Path serialisation: line-delimited JSON and a compact binary frame.

JSONL layout: a header record followed by the chronologically merged
sample/event records; at an event time the order is pre-jump sample,
event, post-jump sample.  Sample lines come from one f-string formatter
compiled per M, with the bytes of one ``json.JSONEncoder`` call per record.

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
from bisect import bisect_left
from typing import BinaryIO, TextIO

import numpy as np

from .engine import Path
from .model import _compiled

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
_BLOCK = 256   # sample records formatted at a time
_SAMPLE_LINES = """\
def f(rows):
    return [f'{{"kind":"sample","t":{t!r},"x":{x!r},"row_sums":[%s]}}\\n' for t, x, %s in rows]
"""


def _jsonl_blocks(path: Path):
    """The JSONL text of ``path``: the header line, then the merged records in
    blocks of about ``_BLOCK`` samples.  The text equals one
    ``json.JSONEncoder`` call per record: ``repr`` of a float is its
    ``float.__repr__``, as in the encoder, which writes the non-finite values
    as ``NaN``, ``Infinity`` and ``-Infinity``."""
    yield _ENCODER.encode({"kind": "header", "format": "hjsm-jsonl", "version": FORMAT_VERSION,
                           "M": path.n_components, "horizon": path.horizon, "seed": path.seed,
                           "model_digest": path.model_hash}) + "\n"
    st, sx, rs, et = path.skeleton_times, path.skeleton_x, path.skeleton_row_sums, path.event_times
    names = [f"r{i}" for i in range(path.n_components)]   # the source holds only these
    samples = _compiled(_SAMPLE_LINES % (",".join(f"{{{r}!r}}" for r in names), ", ".join(names)))
    events = ['{"kind":"event","t":%r,"component":%d}\n' % e
              for e in zip(et.tolist(), path.event_components.tolist())]
    # event j follows the first ins[j] samples: those before it, then its
    # pre-jump sample if one has its time (a NaN after the last sample
    # matches none).  Event times increase and skeleton times do not
    # decrease, so no event precedes an earlier one's samples.
    ins = np.searchsorted(st, et)
    ins = (ins + (np.append(st, np.nan)[ins] == et)).tolist()
    finite = all(np.isfinite(v).all() for v in (st, sx, rs, et))
    j0, n = 0, len(st)
    for a in range(0, max(n, 1), _BLOCK):
        b = min(a + _BLOCK, n)
        # a block at a time: the whole matrix as lists is several times its size
        lines = samples(zip(st[a:b].tolist(), sx[a:b].tolist(), *rs[a:b].T.tolist()))
        j1 = bisect_left(ins, b) if b < n else len(ins)
        for j in range(j1 - 1, j0 - 1, -1):   # from the last, so equal places keep their order
            lines.insert(ins[j] - a, events[j])
        j0 = j1
        text = "".join(lines)
        # only repr's nan and inf hold these letters
        yield text if finite else text.replace("nan", "NaN").replace("inf", "Infinity")


def write_jsonl(path: Path, fh: TextIO) -> None:
    fh.writelines(_jsonl_blocks(path))


def _num(v) -> bool:
    """A JSON number a float holds: not a bool, str, null or too large an integer."""
    return type(v) is float or type(v) is int and abs(v) < 1e308


def _horizon(v) -> bool:
    """A horizon a path can have: a finite number >= 0."""
    return _num(v) and math.isfinite(v) and v >= 0


def _record(text: str, line: int) -> dict:
    try:
        rec = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"line {line}: not JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError(f"line {line}: not a JSON object")
    return rec


def read_jsonl(fh: TextIO) -> Path:
    """The path a :func:`write_jsonl` stream holds; a malformed stream is a
    ValueError naming its 1-based line."""
    header = _record(fh.readline(), 1)
    m, seed, digest = header.get("M"), header.get("seed"), header.get("model_digest")
    if not (header.get("kind") == "header" and header.get("format") == "hjsm-jsonl"
            and type(m) is int and m > 0 and _horizon(header.get("horizon"))
            and type(seed) is int and 0 <= seed < 2 ** 64
            and type(digest) is str and _DIGEST.fullmatch(digest)):
        raise ValueError("line 1: not a path JSONL header with an integer M > 0, a finite "
                         "horizon >= 0, an integer seed in 0..2**64 - 1 and a model_digest "
                         "of 64 lowercase hex digits")
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
    buf.writelines(text.encode() for text in _jsonl_blocks(path))
    return buf.getvalue()


def dumps_binary(path: Path) -> bytes:
    buf = io.BytesIO()
    write_binary(path, buf)
    return buf.getvalue()
