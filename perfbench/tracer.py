"""Span tracing of hjsim's public functions, installed from outside the library.

``Tracer.install`` replaces every public function of the traced modules (and
the public methods of ``RandomStream``) with a wrapper, in every hjsim module
namespace that holds a reference to it, so calls between modules are seen at
the layer boundary.  ``Tracer.restore`` puts the originals back.

Each call that enters a layer from outside it records a span
``(id, parent, name, start, end)`` and adds its duration, minus the time of
the spans it opened, to the self time of its layer.  A call made from inside
the same layer only runs its counter, so its time stays with the caller's
span.  Spans are buffered per operation and written out by ``save_spans``.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# intensity and stability are left out: no workload calls them (the engine
# evaluates rates through its own runtime object).
LAYERS = ("engine", "diffusion", "rng", "model", "pathio", "diagnostics", "cli")

_EM_EPS = 1e-12  # the relative tolerance of hjsim.diffusion's substep rule


def _new_spans():
    return (array("q"), array("q"), array("H"), array("d"), array("d"))


class OpStats:
    """Counters and times gathered over one traced operation."""

    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.entries = defaultdict(int)    # layer -> spans (calls from outside it)
        self.count = defaultdict(int)      # metric name -> count
        self.incl_s = defaultdict(float)   # timed function group -> inclusive seconds


class Tracer:
    def __init__(self, hjsim_pkg):
        self.pkg = hjsim_pkg
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [span id, layer, child seconds]
        self._next_id = 0
        self.build_s: list[float] = []
        self.op = -1
        self.stats = OpStats()
        self.spans = _new_spans()

    def install(self) -> None:
        """Wrap the public functions of every traced layer."""
        prefix = self.pkg.__name__ + "."
        modules = [self.pkg] + [m for name, m in sorted(sys.modules.items())
                                if name.startswith(prefix) and m is not None]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])
        stream = self.pkg.rng.RandomStream
        for name, value in list(vars(stream).items()):
            if not name.startswith("_") and inspect.isfunction(value):
                self._patch(stream, name, self._wrap(value, "rng", f"rng.RandomStream.{name}"))

    def _patch(self, owner, name, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def restore(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, func, layer: str, qualname: str):
        if qualname not in self.names:
            self.names.append(qualname)
        name_id = self.names.index(qualname)
        after, probe = _COUNTERS.get(qualname, (None, None))
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == layer:
                result = func(*args, **kwargs)
                if after:
                    after(tracer, args, kwargs, result, None, 0.0)
                return result
            frame = [tracer._next_id, layer, 0.0]
            tracer._next_id += 1
            before = probe(args, kwargs) if probe else None
            push(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                pop()
                dur = end - start
                stats = tracer.stats
                stats.self_s[layer] += dur - frame[2]
                stats.entries[layer] += 1
                if parent is not None:
                    parent[2] += dur
                spans = tracer.spans
                spans[0].append(frame[0])
                spans[1].append(-1 if parent is None else parent[0])
                spans[2].append(name_id)
                spans[3].append(start)
                spans[4].append(end)
            if after:
                after(tracer, args, kwargs, result, before, dur)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def begin_op(self, op: int) -> None:
        """Start an operation: fresh counters and an empty span buffer."""
        self.op = op
        self.stats = OpStats()
        self.spans = _new_spans()

    def save_spans(self, filename: str) -> int:
        """Write the current operation's spans as a numpy archive; returns
        how many there were."""
        ids, parents, names, starts, ends = (np.frombuffer(a, dtype=a.typecode)
                                             for a in self.spans)
        np.savez(filename, names=np.array(self.names), id=ids, parent=parents,
                 name=names, start=starts, end=ends, op=np.full(len(ids), self.op))
        return len(ids)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _substeps(dt: float, cfg, n_positions: int = 1) -> int:
    """Transitions one advance makes: 1 exact-OU step, or the Euler-Maruyama
    substeps (full steps plus a last partial one landing on dt)."""
    step = getattr(cfg.scheme, "step", None)
    if step is None:
        return n_positions
    n_full = int(dt / step + _EM_EPS)
    rem = dt - n_full * step
    return n_positions * (n_full + (rem >= _EM_EPS * max(step, dt)))


# Counting rules: (tracer, args, kwargs, result, probe value, seconds) -> None.
# Calls within a layer run their rule with 0 seconds: their time is the caller's.

def _path_done(tr, args, kwargs, path, before, dur):
    count = tr.stats.count
    count["engine.paths"] += 1
    count["engine.events"] += path.n_events
    count["engine.skeleton_samples"] += len(path.skeleton_times)


def _advance(tr, args, kwargs, result, before, dur):
    positions = len(result) if isinstance(result, np.ndarray) else 1
    tr.stats.count["diffusion.calls"] += 1
    tr.stats.count["diffusion.substeps"] += _substeps(
        _arg(args, kwargs, 1, "dt"), _arg(args, kwargs, 3, "cfg"), positions)


def _draws(kind, sized=False):
    def rule(tr, args, kwargs, result, before, dur):
        tr.stats.count[kind] += int(_arg(args, kwargs, 1, "n")) if sized else 1
    return rule


def _digest(tr, args, kwargs, result, before, dur):
    tr.stats.count["model.digest_calls"] += 1
    tr.stats.incl_s["model.digest"] += dur


def _built(tr, args, kwargs, result, before, dur):
    tr.build_s.append(dur)


def _written(tr, args, kwargs, result, before, dur):
    tr.stats.count["pathio.bytes_written"] += len(result)
    tr.stats.incl_s["pathio.write"] += dur


def _tell(args, kwargs):
    try:
        return _arg(args, kwargs, 0, "fh").tell()
    except (OSError, AttributeError):
        return None


def _read(tr, args, kwargs, result, before, dur):
    if before is not None:
        tr.stats.count["pathio.bytes_read"] += _arg(args, kwargs, 0, "fh").tell() - before
    tr.stats.incl_s["pathio.read"] += dur


# Qualified name -> (counting rule, probe taken before the call).
_COUNTERS = {
    "engine.simulate_path": (_path_done, None),
    "diffusion.advance_diffusion": (_advance, None),
    "diffusion.advance_diffusion_many": (_advance, None),
    "rng.RandomStream.uniform": (_draws("rng.uniforms"), None),
    "rng.RandomStream.uniforms": (_draws("rng.uniforms", sized=True), None),
    "rng.RandomStream.normal": (_draws("rng.normals"), None),
    "rng.RandomStream.normals": (_draws("rng.normals", sized=True), None),
    "rng.RandomStream.exponential": (_draws("rng.exponentials"), None),
    "model.model_digest": (_digest, None),
    "model.model_from_dict": (_built, None),
    "pathio.dumps_jsonl": (_written, None),
    "pathio.dumps_binary": (_written, None),
    "pathio.read_jsonl": (_read, _tell),
    "pathio.read_binary": (_read, _tell),
}


def layer_metrics(stats: OpStats, op_wall_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced operation: name -> (value, unit).

    Times are multiplied by ``scale``, the operation's machine-speed scale;
    shares are ratios of raw times."""
    c = stats.count
    self_s = {layer: stats.self_s[layer] * scale for layer in LAYERS}
    incl_s = defaultdict(float, {k: v * scale for k, v in stats.incl_s.items()})

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    candidates = c["rng.exponentials"]
    out = {
        "engine.paths": (c["engine.paths"], "count"),
        "engine.events": (c["engine.events"], "count"),
        "engine.candidates": (candidates, "count"),
        "engine.accept_ratio": (ratio(c["engine.events"], candidates), "ratio"),
        "engine.skeleton_samples": (c["engine.skeleton_samples"], "count"),
        "engine.self_s": (self_s["engine"], "s"),
        "engine.us_per_candidate": (ratio(self_s["engine"], candidates, 1e6), "us"),
        "engine.us_per_sample": (ratio(self_s["engine"], c["engine.skeleton_samples"], 1e6),
                                 "us"),
        "diffusion.calls": (c["diffusion.calls"], "count"),
        "diffusion.substeps": (c["diffusion.substeps"], "count"),
        "diffusion.busy_s": (self_s["diffusion"], "s"),
        "diffusion.us_per_substep": (ratio(self_s["diffusion"], c["diffusion.substeps"], 1e6),
                                     "us"),
        "rng.uniforms": (c["rng.uniforms"], "count"),
        "rng.normals": (c["rng.normals"], "count"),
        "rng.exponentials": (candidates, "count"),
        "rng.busy_s": (self_s["rng"], "s"),
        "rng.ns_per_draw": (ratio(self_s["rng"], c["rng.uniforms"], 1e9), "ns"),
        "model.digest_calls": (c["model.digest_calls"], "count"),
        "model.digest_s": (incl_s["model.digest"], "s"),
        "pathio.bytes_written": (c["pathio.bytes_written"], "B"),
        "pathio.write_mb_per_s": (ratio(c["pathio.bytes_written"],
                                        incl_s["pathio.write"], 1e-6), "MB/s"),
        "pathio.bytes_read": (c["pathio.bytes_read"], "B"),
        "pathio.read_mb_per_s": (ratio(c["pathio.bytes_read"],
                                       incl_s["pathio.read"], 1e-6), "MB/s"),
        "diagnostics.calls": (stats.entries["diagnostics"], "count"),
        "diagnostics.busy_s": (self_s["diagnostics"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = (ratio(stats.self_s[layer], op_wall_s), "ratio")
    for key, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"{key} is not finite")
    return out
