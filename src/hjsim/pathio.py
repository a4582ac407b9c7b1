"""Path serialisation: line-delimited JSON and a compact binary frame.

JSONL layout: a header record followed by the chronologically merged
sample/event records; at an event time the order is pre-jump sample,
event, post-jump sample.

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

import json
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


def _merged_records(st: list[float], et: list[float]):
    """Yield ("sample", i) / ("event", j) indices in chronological order for
    skeleton times ``st`` and event times ``et``, putting each event
    between its pre- and post-jump skeleton records."""
    i = j = 0
    while j < len(et):
        while i < len(st) and st[i] < et[j]:
            yield "sample", i
            i += 1
        if i < len(st) and st[i] == et[j]:
            yield "sample", i  # pre-jump value
            i += 1
        yield "event", j
        j += 1
    while i < len(st):
        yield "sample", i
        i += 1


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_jsonl(path: Path, fh: TextIO) -> None:
    header = {"kind": "header", "format": "hjsm-jsonl", "version": FORMAT_VERSION,
              "M": path.n_components, "horizon": path.horizon, "seed": path.seed,
              "model_digest": path.model_hash}
    encode = _ENCODER.encode
    fh.write(encode(header) + "\n")
    st, sx, rs = path.skeleton_times.tolist(), path.skeleton_x.tolist(), path.skeleton_row_sums
    et, ec = path.event_times.tolist(), path.event_components.tolist()
    for kind, idx in _merged_records(st, et):
        if kind == "event":
            rec = {"kind": "event", "t": et[idx], "component": ec[idx]}
        else:
            # a row at a time: the whole matrix as nested lists is several
            # times its size
            rec = {"kind": "sample", "t": st[idx], "x": sx[idx], "row_sums": rs[idx].tolist()}
        fh.write(encode(rec) + "\n")


def read_jsonl(fh: TextIO) -> Path:
    header = json.loads(fh.readline())
    if header.get("kind") != "header" or header.get("format") != "hjsm-jsonl":
        raise ValueError("not a path JSONL stream (missing header record)")
    ev_t, ev_c, sk_t, sk_x, sk_rs = [], [], [], [], []
    for line in fh:
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["kind"] == "event":
            ev_t.append(rec["t"])
            ev_c.append(rec["component"])
        elif rec["kind"] == "sample":
            sk_t.append(rec["t"])
            sk_x.append(rec["x"])
            sk_rs.append(rec["row_sums"])
        else:
            raise ValueError(f"unknown record kind {rec['kind']!r}")
    m = header["M"]
    return Path(
        event_times=np.array(ev_t, dtype=float),
        event_components=np.array(ev_c, dtype=np.int32),
        skeleton_times=np.array(sk_t, dtype=float),
        skeleton_x=np.array(sk_x, dtype=float),
        skeleton_row_sums=(np.array(sk_rs, dtype=float)
                           if sk_rs else np.empty((0, m))),
        horizon=float(header["horizon"]),
        seed=int(header["seed"]),
        model_hash=str(header["model_digest"]),
    )


def write_binary(path: Path, fh: BinaryIO) -> None:
    fh.write(_HEADER.pack(BINARY_MAGIC, FORMAT_VERSION, 0, path.n_components, 0,
                          path.n_events, len(path.skeleton_times), path.horizon,
                          path.seed, bytes.fromhex(path.model_hash)))
    events = np.zeros(path.n_events, dtype=_EVENT_DTYPE)
    events["t"] = path.event_times
    events["component"] = path.event_components
    fh.write(events.tobytes())
    samples = np.empty((len(path.skeleton_times), 2 + path.n_components))
    samples[:, 0] = path.skeleton_times
    samples[:, 1] = path.skeleton_x
    samples[:, 2:] = path.skeleton_row_sums
    fh.write(samples.astype("<f8").tobytes())


def read_binary(fh: BinaryIO) -> Path:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated binary path file")
    magic, version, _, m, _, n_events, n_samples, horizon, seed, digest = _HEADER.unpack(raw)
    if magic != BINARY_MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a binary path file")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
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
    import io

    buf = io.StringIO()
    write_jsonl(path, buf)
    return buf.getvalue().encode()


def dumps_binary(path: Path) -> bytes:
    import io

    buf = io.BytesIO()
    write_binary(path, buf)
    return buf.getvalue()
