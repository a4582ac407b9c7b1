"""Exact event-driven simulation of the coupled process z = (x, y).

The rates read only the memory y, never x, so a path's events do not depend
on its diffusion.  Every simulation therefore runs in two phases:

1. Thinning records the events.  Candidates arrive at the Lipschitz-envelope
   rate B(y) of the current memory, which dominates the total intensity
   along the decay flow until the next event (row absolute sums only shrink
   between events).  A candidate at tau is attributed to component i with
   probability lambda_i(y(tau-))/B by one uniform that partitions [0, 1]
   into M + 1 ordered intervals, the last being the rejection mass; after a
   rejection the bound is recomputed at the flowed memory.  The rates and
   the bound come from :class:`hjsim.intensity.RateRuntime`.  Each event
   records its time, component, pre-jump row sums and post-jump memory.
2. The skeleton pass (``_skeleton``) turns a group's records into paths: it
   flows each segment's anchor memory to the sample times in closed form,
   steps x over the intervals between samples and events, and applies the
   jump map at each event.  Exact-OU x steps record k of every path at once
   while ``_LOCKSTEP_MIN`` paths are live, then path by path (``_walk``), a
   run of plain intervals at a time, each run one list comprehension.
   Each :class:`Path` is a slotted object whose arrays are views into the
   group's columns.

The draw order is the contract every digest rests on: a segment's thinning
draws come first, then its normals as one block (one per exact-OU interval,
one per Euler-Maruyama substep, none without noise; ``_GroupLog._count``).
Phase 1 takes each block when the segment closes, at an acceptance or at the
horizon, into one buffer, and the record that closes the segment keeps the
block's offset there; phase 2 reads each segment's normals from its offset.

A path thinned on its own runs ``_run_events``: a candidate loop of scalar
code compiled once per M and noise kind (``_one_path``), bound once per
group, with the path's place and memory in locals.  Its envelope and memory
flow are the source of ``RateRuntime``'s ``bound`` and ``flow``
(:func:`hjsim.intensity._fragments`), which rounds every sum, exp and dot
product as numpy does, so it gives the bytes of the array code on one row.
Its records and the uniforms of its normals go to float buffers; the skeleton
pass makes normals of a group's uniforms with one :func:`hjsim.rng.ndtri` call.

Ensembles thin their paths in lockstep groups (``_simulate_group``): the
memory flow, the rates, the envelope, the component pick and the event
records are array operations over the live paths.  Each path's
counter-based stream is a row of a :class:`hjsim.rng.DrawBank`, addressed by
(key, draw index), so one draw for all paths is one gather.  Below
``_LOCKSTEP_MIN`` live paths an iteration costs more than serial thinning,
and each remaining path continues through ``_run_events`` from its bank row.
No path's draws are reordered, so every path is byte-identical to the one
:func:`simulate_path` makes from its seed.  The live-path count alone picks
array or scalar code, in thinning and in the walk; a budget on the live
state sets the group width, and so bounds only memory.  ``_run_events``
also continues the candidate-bearing paths of the Monte Carlo generator
check in :mod:`hjsim.stability`.

These are the two thinning loops.  The lockstep loop also runs the textbook
construction of ``simulate_path_reference``, a cross-validation oracle, as a
second bound policy, down to the last live path: a one-dimensional
dominating counting process whose rate starts at the envelope of the initial
state and gains a fixed increment M * gamma_bar * c_bar at every dominating
event (with no decay), each dominating event then being thinned by the true
intensities.  Both produce the same law; the reference construction is
exponentially wasteful in time and is only practical over short horizons.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from .diffusion import (ExactOU, IntegratorConfig, SimulationLimitError, _check_substeps,
                        _em_kernel, _em_plan, _em_split, _noiseless, _ou_terms)
from .intensity import RateRuntime, _fragments
from .model import ModelSpec, PowerBoundedJump, _compiled, model_digest
from .rng import DrawBank, RandomStream, derive_path_seeds, ndtri

__all__ = [
    "SimulationLimitError",
    "Path",
    "simulate_path",
    "simulate_path_reference",
    "simulate_ensemble",
    "reference_rate_step",
    "DEFAULT_MAX_EVENTS",
]

DEFAULT_MAX_EVENTS = 10_000_000

# Below this many live paths a lockstep iteration, of thinning or of the
# exact-OU walk, costs more than running the paths one at a time.  Against
# 4 for thinning and 64 for the walk (in-process medians of 21 alternating
# rounds, Python 3.11, numpy 2.4, 2-core Xeon), 32 ran 8 M = 3 sigmoid
# Euler-Maruyama paths in 0.59x the time, 4 groups of 25 exact-OU paths in
# 0.78x and the 1000-path short_paths group in 0.96x; 64 ran groups of 40-48
# paths in 1.13-1.58x, and 16 the groups of 25 in 1.02x.
_LOCKSTEP_MIN = 32
# Live state a group may hold, counted by _path_bytes.  The 1000 short
# exact-OU paths of the short_paths benchmark (M = 2, horizon 5, no grid)
# count 1.7 KB each and run as one group: 0.044 s against 0.064 s in groups
# of 250, at 69.0 MB peak RSS against 67.4 MB (medians of 10 runs, 2-core
# Xeon, Python 3.11, numpy 2.4).
_GROUP_BUDGET = 1 << 21
# The footprint of a path in a group: its share of the group's tracemalloc
# peak, measured on one group of 1000 paths of an M-component affine model
# (M = 1..4, horizons 5 and 40, with and without a grid, exact-OU and
# Euler-Maruyama step 0.05; Python 3.11, numpy 2.4).  Per path 390-720 B
# whatever its length:
_PATH_BYTES = 512
# per sample time 96-130 B (of which the path keeps 16 + 8 M):
_SAMPLE_BYTES = 128
# per event 162, 210, 287 and 419 B for M = 1..4, this plus 16 M^2 (records
# hold the M x M memory); Euler-Maruyama paths 15-75 B more:
_EVENT_BYTES = 144


@dataclass(frozen=True, eq=False, slots=True)
class Path:
    """One realised trajectory.

    Events carry 1-based component labels in 1..M (M >= 1, the width of the
    row sums) and strictly increasing finite times in (0, horizon].  The
    skeleton records (time, x, row sums of y) at time 0, at every global
    multiple of the output grid step, at the horizon, and twice at every
    event time (the values immediately before and after the jump), so
    skeleton times are nondecreasing with equal times exactly at jumps.
    """

    event_times: np.ndarray
    event_components: np.ndarray
    skeleton_times: np.ndarray
    skeleton_x: np.ndarray
    skeleton_row_sums: np.ndarray
    horizon: float
    seed: int
    model_hash: str

    def __post_init__(self):
        for name in ("event_times", "event_components", "skeleton_times", "skeleton_x",
                     "skeleton_row_sums"):
            arr = np.asarray(getattr(self, name),
                             dtype=np.int32 if name == "event_components" else float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        et, ec, st, rs = (self.event_times, self.event_components, self.skeleton_times,
                          self.skeleton_row_sums)
        if not (et.ndim == ec.ndim == st.ndim == self.skeleton_x.ndim == 1 and rs.ndim == 2
                and len(et) == len(ec) and len(st) == len(self.skeleton_x) == len(rs)):
            raise ValueError("a path needs as many event components as event times, and as "
                             "many skeleton x values and row-sum rows as skeleton times")
        if rs.shape[1] < 1:
            raise ValueError("a path needs M >= 1 components")
        if not (np.isfinite(et) & (et > 0.0) & (et <= self.horizon)).all():
            raise ValueError(f"event times must be finite and in (0, horizon = {self.horizon!r}]")
        if not (et[1:] > et[:-1]).all():
            raise ValueError("event times must be strictly increasing")
        if not ((ec >= 1) & (ec <= rs.shape[1])).all():
            raise ValueError(f"event components must lie in 1..M = {rs.shape[1]}")
        if not (np.isfinite(st).all() and (st[1:] >= st[:-1]).all()):
            raise ValueError("skeleton times must be finite and nondecreasing")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in 0..2**64 - 1, got {self.seed!r}")

    @classmethod
    def _built(cls, *, event_times, event_components, skeleton_times, skeleton_x,
               skeleton_row_sums, horizon, seed, model_hash) -> Path:
        """A path from read-only arrays that pass :meth:`__post_init__`'s
        checks, its slots set through their own setters, which the frozen
        ``__setattr__`` does not reach."""
        path = object.__new__(cls)
        _set_event_times(path, event_times)
        _set_event_components(path, event_components)
        _set_skeleton_times(path, skeleton_times)
        _set_skeleton_x(path, skeleton_x)
        _set_skeleton_row_sums(path, skeleton_row_sums)
        _set_horizon(path, horizon)
        _set_seed(path, seed)
        _set_model_hash(path, model_hash)
        return path

    @property
    def n_events(self) -> int:
        return len(self.event_times)

    @property
    def n_components(self) -> int:
        return self.skeleton_row_sums.shape[1]


(_set_event_times, _set_event_components, _set_skeleton_times, _set_skeleton_x,
 _set_skeleton_row_sums, _set_horizon, _set_seed, _set_model_hash) = (
    Path.__dict__[name].__set__ for name in Path.__slots__)


def _sample_eps(horizon: float) -> float:
    """eps: sample times, or a sample time and an event, this close are one time."""
    return 1e-12 * max(1.0, horizon)


def _grid_multiples(horizon: float, grid_dt: float) -> np.ndarray:
    """``k * grid_dt`` for k = 0, 1, ... up to ``horizon + eps``; refuses a
    step that is not finite and positive, and a grid of more than
    ``DEFAULT_MAX_EVENTS`` samples."""
    if not (grid_dt > 0 and math.isfinite(grid_dt)):
        raise ValueError("grid_dt must be a finite positive number")
    eps = _sample_eps(horizon)
    n_grid = (horizon + eps) / grid_dt
    if n_grid > DEFAULT_MAX_EVENTS:
        raise SimulationLimitError(
            f"a grid step of {grid_dt:.6g} over horizon {horizon:.6g} gives about "
            f"{n_grid:.3g} samples, more than {DEFAULT_MAX_EVENTS}")
    grid = np.arange(int(n_grid) + 1) * grid_dt
    return grid[grid <= horizon + eps]   # a multiple can round past horizon + eps


def _build_sample_times(horizon: float, grid_dt: float, extra) -> np.ndarray:
    """Sorted grid multiples, extra times and the horizon, with times closer
    than ``eps`` to the last kept one dropped (scanning in order)."""
    eps = _sample_eps(horizon)
    # the grid and then the horizon are in order; the minimum commutes with sorting
    times = np.minimum(np.append(_grid_multiples(horizon, grid_dt)[1:], horizon), horizon)
    if extra is not None:
        extra = np.fromiter(map(float, extra), dtype=float)
        times = np.sort(np.concatenate((times, np.minimum(
            extra[(0.0 < extra) & (extra <= horizon + eps)], horizon))))
    keep = np.ones(len(times), dtype=bool)
    # A time more than eps after its predecessor is also more than eps after
    # the last kept time, so only the close pairs need the sequential scan.
    last = 0
    for i in (np.flatnonzero(np.diff(times) <= eps) + 1).tolist():
        last = i - 1 if keep[i - 1] else last
        keep[i] = times[i] - times[last] > eps
    return times[keep]


class _GroupLog:
    """Phase 1's records of a group of paths, and where each path stands.

    The row buffer ``rec`` holds each path's start (component 0, time 0, the
    initial memory) and a row per event: path, time, component, the index
    ``lo`` of the path's next sample time, the offset in ``z`` of the
    normals of the segment the event closes, the pre-jump row sums and the
    post-jump memory.  ``z`` holds the uniforms of normals, a segment's as
    one block, in the order either thinning loop takes them; ``z_end``
    holds each path's offset of the segment that closes at the horizon.
    Rows go in time order per path.  ``t_anchor``, ``lo`` and ``n_events``
    hold each path's last event time, next sample index and event count.
    """

    def __init__(self, model: ModelSpec, cfg: IntegratorConfig, horizon: float,
                 sample_times: np.ndarray, n: int):
        self.model, self.cfg, self.horizon = model, cfg, horizon
        self.m = m = model.n_components
        self.ou = isinstance(cfg.scheme, ExactOU)
        self.noisy = not _noiseless(model.coefficients)
        # a sentinel ends every scan of the sample times; one path reads them
        # as floats through a view
        self.samples = np.append(sample_times, math.inf)
        self.sample_floats = memoryview(self.samples)
        self.eps = _sample_eps(horizon)
        self.c = model.kernel.c.ravel().tolist()
        # c_added[j] holds column j of c in column j and -0.0 elsewhere, which
        # leaves every float as it is: an event of component j + 1 adds it
        self.c_added = np.where(np.eye(m, dtype=bool)[:, None], model.kernel.c, -0.0)
        self.t_anchor, self.lo = np.zeros(n), np.zeros(n, dtype=np.intp)
        self.n_events, self.z_end = np.zeros((2, n), dtype=np.intp)
        start = np.zeros((n, 5 + m + m * m))
        start[:, 0] = np.arange(n)
        start[:, 5 + m:] = model.initial.y.ravel()
        self.rec, self.z = array("d", start.tobytes()), array("d")
        self.thin = None   # the bound one-path loop, made by the first _run_events
        if self.noisy and not self.ou:
            # em_cum[j]: the Euler-Maruyama substeps from the first sample
            # time to sample time j
            full, rem = _em_plan(np.diff(sample_times), cfg.scheme.step)
            self.em_cum = memoryview(np.cumsum(np.append(0, full + (rem > 0))))

    def _hi(self, lo, t_stop):
        """The end of the sample times before ``t_stop - eps``, from ``lo``."""
        return np.maximum(np.searchsorted(self.samples, t_stop - self.eps), lo)

    def _count(self, t0: float, lo: int, hi: int, t_stop: float) -> int:
        """Normals of the segment from t0 to t_stop through samples[lo:hi],
        one per noisy interval or substep that ``_walk`` steps, in O(1)."""
        if not self.noisy:
            return 0
        if hi == lo:
            if not t_stop > t0:
                return 0
            return 1 if self.ou else _em_split(t_stop - t0, self.cfg.scheme.step)[0]
        if self.ou:
            # sample times lie after the anchor and more than eps before the
            # stop, so the intervals between them are nonempty
            return hi - lo + 1
        at, h = self.sample_floats, self.cfg.scheme.step
        first, last = at[lo] - t0, t_stop - at[hi - 1]
        return (self.em_cum[hi - 1] - self.em_cum[lo]
                + (_em_split(first, h)[0] if first > 0 else 0)
                + (_em_split(last, h)[0] if last > 0 else 0))

    def take_rows(self, rows: np.ndarray, t_stop: np.ndarray, bank: DrawBank) -> tuple:
        """Take paths ``rows``' normals up to ``t_stop`` from ``bank``, those with
        one normal as one block, then each other block; returns (hi, offsets)."""
        t0, lo = self.t_anchor[rows], self.lo[rows]
        hi = self._hi(lo, t_stop)
        if not self.noisy:
            return hi, 0
        # as _count, with Euler-Maruyama segments counted one by one
        n = (t_stop > t0).astype(np.intp)
        if self.ou:
            n = np.where(hi > lo, hi - lo + 1, n)
        else:
            for r in np.flatnonzero(n).tolist():
                n[r] = self._count(float(t0[r]), int(lo[r]), int(hi[r]), float(t_stop[r]))
        one = n == 1
        u, z0 = bank.uniforms(rows[one]), np.arange(len(self.z), len(self.z) + len(rows))
        if len(u) < len(rows):   # the paths with one normal take theirs in row order
            z0[one] = z0[:len(u)].copy()
        self.z.frombytes(u.tobytes())
        for r in np.flatnonzero(n > 1).tolist():
            z0[r] = len(self.z)
            self.z.frombytes(bank.take(rows[r], n[r]).tobytes())
        return hi, z0

    def record_rows(self, k: np.ndarray, tau: np.ndarray, comp: np.ndarray, hi: np.ndarray,
                    z0: np.ndarray | int, y_pre: np.ndarray) -> None:
        """Record paths ``k``'s events of 1-based component ``comp`` at ``tau``, after
        ``take_rows``; the pre-jump memory ``y_pre`` (n, M, M) gains c's column."""
        lo = hi
        near = np.abs(self.samples[lo] - tau) <= self.eps
        while near.any():   # step past the sample times on tau
            lo = lo + near
            near = np.abs(self.samples[lo] - tau) <= self.eps
        m = self.m
        rows = np.empty((len(k), 5 + m + m * m))
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4] = k, tau, comp, lo, z0
        y_pre.sum(axis=2, out=rows[:, 5:5 + m])
        y_pre += self.c_added[comp - 1]
        rows[:, 5 + m:] = y_pre.reshape(len(k), -1)
        self.rec.frombytes(rows.tobytes())
        self.t_anchor[k], self.lo[k] = tau, lo
        self.n_events[k] += 1


def _skeleton(log: _GroupLog, seeds: list[int], digest: str) -> tuple[list[Path], np.ndarray]:
    """Phase 2: the paths of a group from its records, and each path's x at
    the horizon.

    Each row of a path (its start, then each event) anchors a segment that
    ends at the path's next event or at the horizon: its time and memory,
    flowed in closed form, give the row sums at the sample times in
    [lo, hi).  x steps over the intervals between these times with the
    segment's normals, and the jump map follows each event.  The horizon
    record is kept if it lies more than eps after the record before it.
    """
    m, horizon, samples = log.m, log.horizon, log.samples
    rows = np.frombuffer(log.rec).reshape(-1, 5 + m + m * m)
    # the buffers go with the one-path loop that appends to them
    rows, log.rec, log.thin = rows[np.argsort(rows[:, 0], kind="stable")], None, None
    start = rows[:, 2] == 0
    t0, lo, anchors = rows[:, 1], rows[:, 3].astype(np.intp), rows[:, 5 + m:].reshape(-1, m, m)
    # a segment ends, and its normals' offset is kept, at the next row of
    # its path, or at the horizon after the path's last row
    last, stop, z0 = np.ones_like(start), np.full(len(t0), horizon), np.empty(len(t0), np.intp)
    last[:-1], stop[:-1], z0[:-1] = start[1:], t0[1:], rows[1:, 4]
    stop[last], z0[last] = horizon, log.z_end
    n_samples = log._hi(lo, stop) - lo

    # the records of a segment: its anchor (a path's start or an event's
    # post-jump record), its sample times and its end (the next event's
    # pre-jump record, or the horizon's)
    seg0 = np.cumsum(n_samples + 2) - n_samples - 2
    end = seg0 + 1 + n_samples
    size = 2 * len(rows) + int(n_samples.sum())
    times, rs = np.empty(size), np.empty((size, m))
    kind = np.zeros(size, dtype=np.int8)   # how _walk reaches each record's x
    times[seg0], rs[seg0], kind[seg0] = t0, anchors.sum(axis=2), np.where(start, 2, 6)
    seg = np.repeat(np.arange(len(rows)), n_samples)
    pos = np.arange(len(seg)) - (np.cumsum(n_samples) - n_samples)[seg]
    rec = seg0[seg] + 1 + pos
    times[rec] = samples[lo[seg] + pos]
    alpha = log.model.kernel.alpha
    chunk = max(1, _GROUP_BUDGET // (16 * m * m))   # bounds the flow's temporaries
    for a in range(0, len(seg), chunk):
        g, r = seg[a:a + chunk], rec[a:a + chunk]
        flow = np.exp(-alpha[None] * (times[r] - t0[g])[:, None, None])
        rs[r] = (anchors[g] * flow).sum(axis=2)
    del seg, pos, rec
    times[end] = stop
    # an empty segment leaves x as it is
    kind[end] = np.where((n_samples == 0) & ~(stop > t0), 4, 0) + ~last
    rs[end[~last]] = rows[1:, 5:5 + m][~last[:-1]]
    flow = np.exp(-alpha * (horizon - t0[last])[:, None, None])
    rs[end[last]] = (anchors[last] * flow).sum(axis=2)

    ev_t, ev_c = t0[~start], rows[~start, 2].astype(np.int32)
    del rows, anchors, t0   # before _walk's peak
    x = _walk(log, times, kind, seg0, end, start, z0)
    firsts, lasts = np.flatnonzero(start), np.flatnonzero(last)
    ev_end = np.cumsum(lasts - firsts).tolist()
    # a path's records end with the horizon's, unless the one before it is
    # within eps
    rec_end = end[lasts] + (horizon - times[end[lasts] - 1] > log.eps)
    for a in (ev_t, ev_c, times, x, rs):   # and so every path's views of them
        a.setflags(write=False)
    paths = [Path._built(event_times=ev_t[e0:e1], event_components=ev_c[e0:e1],
                         skeleton_times=times[r0:r1], skeleton_x=x[r0:r1],
                         skeleton_row_sums=rs[r0:r1], horizon=horizon, seed=seed,
                         model_hash=digest)
             for seed, e0, e1, r0, r1 in zip(seeds, [0] + ev_end, ev_end, seg0[firsts].tolist(),
                                             rec_end.tolist())]
    return paths, x[end[lasts]]


def _walk(log: _GroupLog, times, kind, seg0, end, start, z0) -> np.ndarray:
    """x at every record of :func:`_skeleton`, each segment's from its normals at ``z0``.

    Exact-OU steps record k of every live path at once, in lockstep, while
    ``_LOCKSTEP_MIN`` paths have a record k; each remaining path then resumes
    from its x in one scalar loop, which a narrower group runs from the
    start.  Euler-Maruyama calls the scalar kernel once per segment, with
    the substeps of every interval planned in one pass.

    ``kind`` says how each record's x is reached: 0 over an interval from the
    record before, plus 1 where an event's jump follows; 2 at a path's
    start; 4 as the record before (an empty segment); and 6 for the
    post-jump record that the jump gives.
    """
    coeffs, x0 = log.model.coefficients, log.model.initial.x
    z, log.z = np.frombuffer(log.z), None   # the normals' uniforms, made normals in place
    ndtri(z, out=z)
    n_int = (end - seg0) * (kind[end] < 2)   # each segment's intervals
    jump = coeffs.jump.on_floats()
    if not log.ou:
        # the records reached over an interval, segment by segment
        steps = np.flatnonzero(kind < 2)
        h = log.cfg.scheme.step
        full, rem = _em_plan(times[steps] - times[steps - 1], h)
        plan = zip(memoryview(full), memoryview(rem))
        del steps, full, rem
        em, normals, out = _em_kernel(coeffs), memoryview(z), []
        for s, k, o in zip(start.tolist(), n_int.tolist(), z0.tolist()):
            x = x0 if s else x + jump(x)   # the event's jump
            out.append(x)
            if k:
                x = em(x, islice(plan, k), h, iter(normals[o:]), out)
            else:
                out.append(x)
        return np.array(out)

    if log.noisy:   # each segment's normals from its offset, in its intervals' order
        z = z[np.repeat(z0 - np.cumsum(n_int) + n_int, n_int) + np.arange(n_int.sum())]
    steps = np.flatnonzero(kind != 6)
    kind = kind[steps]
    ends = np.flatnonzero(kind < 2)
    p, q, d, sd = _ou_terms(times[steps[ends]] - times[steps[ends] - 1], coeffs.drift,
                            coeffs.diffusion.value)
    qs, ds, es = None, np.zeros(len(steps)), np.full(len(steps), -0.0)
    ds[ends] = d
    if isinstance(q, np.ndarray):   # q per interval (a zero-rate drift), else q is p
        qs = np.zeros(len(steps))
        qs[ends] = q
    if log.noisy:
        es[ends] = sd * z
    # a noiseless step adds -0.0, which leaves every float as it is
    del ends, q, d, sd, z
    # each path's records from its start on; in lockstep the paths with the
    # most records come first, so that the live paths are a prefix
    first = np.flatnonzero(kind == 2)
    n_rec = np.diff(first, append=len(kind))
    out, k, live = None, 0, len(first)
    if live >= _LOCKSTEP_MIN:
        order = np.argsort(-n_rec, kind="stable")
        first, n_rec = first[order], n_rec[order]
        out = np.empty(len(times))
        out[steps[first]] = x0
        xs, k, counts = np.full(live, x0), 1, n_rec.tolist()
        per_row = isinstance(coeffs.jump, PowerBoundedJump)
        with np.errstate(all="ignore"):   # as the scalar loop, which never warns
            while True:
                while live and counts[live - 1] <= k:
                    live -= 1
                if live < _LOCKSTEP_MIN:
                    break
                r = first[:live] + k
                kr, x = kind[r], xs[:live]
                x = np.where(kr < 2, (p if qs is None else qs[r]) + (x - p) * ds[r] + es[r], x)
                at = steps[r]
                out[at] = x
                hit = np.flatnonzero(kr & 1)
                if len(hit):
                    xj = x[hit]
                    if per_row:   # numpy's array power does not round as libm's pow
                        xj = np.array([v + jump(v) for v in xj.tolist()])
                    else:
                        xj = xj + coeffs.jump(xj)
                    x[hit] = xj
                    out[at[hit] + 1] = xj
                xs[:live] = x
                k += 1
    # each remaining path resumes from record k, a run of plain intervals at a time
    starts, stops = first[:live] + k, first[:live] + n_rec[:live]
    if out is not None:   # a path's records run on to its last, which has no jump
        at = steps[starts]
        n = steps[stops - 1] + 1 - at
    del steps
    starts, stops = starts.tolist(), stops.tolist()
    tail = _ou_runs(zip([x0] * live if out is None else xs[:live].tolist(), starts, stops,
                        [(np.flatnonzero(kind[a:b]) + a).tolist() + [b]
                         for a, b in zip(starts, stops)]),
                    x0, p, qs if qs is None else memoryview(qs),
                    memoryview(ds), memoryview(es), memoryview(kind), jump)
    if out is None:   # every path ran here, in order
        return np.frombuffer(tail)
    out[np.repeat(at - np.cumsum(n) + n, n) + np.arange(len(tail))] = tail
    return out


def _ou_runs(paths, x0: float, p: float, qs, ds, es, kind, jump) -> array:
    """x at the records of exact-OU paths for :func:`_walk`: each of ``paths``
    (x, a, b, special) resumes from x at record a up to b, and ``special``
    lists its records that are not plain intervals, then b.  A run of plain
    intervals is one comprehension (its x no cell of the caller); ``qs`` is None where q is p."""
    tail = array("d")
    add, add_run = tail.append, tail.fromlist
    for x, a, b, special in paths:
        for r in special:
            if a < r:
                if qs is None:
                    add_run([x := p + (x - p) * d + e for d, e in zip(ds[a:r], es[a:r])])
                else:
                    add_run([x := q + (x - p) * d + e
                             for q, d, e in zip(qs[a:r], ds[a:r], es[a:r])])
            if r == b:
                break
            kr = kind[r]
            if kr == 1:   # an interval, then the event's jump
                x = (p if qs is None else qs[r]) + (x - p) * ds[r] + es[r]
                add(x)
                x = x + jump(x)
            elif kr == 2:
                x = x0
            add(x)
            a = r + 1
    return tail


def simulate_path(model: ModelSpec, horizon: float, cfg: IntegratorConfig, seed: int,
                  *, sample_at=None, max_events: int = DEFAULT_MAX_EVENTS) -> Path:
    """Simulate one trajectory over (0, horizon], fully determined by
    (model, horizon, cfg, seed).  A zero horizon yields the empty path; a
    NaN or negative one raises ``ValueError``.

    ``sample_at`` optionally adds extra skeleton sample times on top of the
    regular grid.  Raises :class:`SimulationLimitError` after ``max_events``
    accepted events, or before simulating when the grid would hold more than
    ``DEFAULT_MAX_EVENTS`` samples or the path more than 10**8 substeps.
    """
    return _simulate_all(model, horizon, cfg, [seed], sample_at=sample_at,
                         max_events=max_events)[0]


def ProcessPoolExecutor(max_workers: int):
    """A process pool, imported only by a run that starts one (it loads ``multiprocessing``)."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def _simulate_all(model: ModelSpec, horizon: float, cfg: IntegratorConfig, seeds: list[int],
                  workers: int = 1, sample_at=None, **kwargs) -> list[Path]:
    """One path per seed, in order; the checks, the sample times and the
    model digest are done once for all of them.  Paths run in the fewest
    groups of at most ``_GROUP_BUDGET`` bytes of live state that differ in
    size by at most one; at most one worker process runs per group and per
    CPU."""
    if not horizon >= 0:
        raise ValueError("horizon must be >= 0")
    horizon = float(horizon)   # an integer horizon would make integer time arrays
    cfg.validate_for(model.coefficients)
    _check_substeps(horizon, cfg.scheme)
    sample_times = _build_sample_times(horizon, cfg.grid_dt, sample_at)
    run = partial(_simulate_group, model, horizon, cfg, sample_times, model_digest(model),
                  **kwargs)
    if workers > 1:
        workers = min(workers, len(seeds), os.cpu_count() or 1)
    # the paths that fit the budget: 0 or NaN for an envelope too large or
    # not finite, which thinning then reports
    fit = _GROUP_BUDGET // _path_bytes(model, horizon, cfg, len(sample_times))
    width = min(int(fit) if fit >= 1 else 1, -(-len(seeds) // max(workers, 1)))
    groups = _split(seeds, width)
    if workers <= 1:
        return [p for group in groups for p in run(group)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        paths = [p for group in pool.map(run, groups) for p in group]
    for p in paths:   # unpickling drops numpy's read-only flag
        for a in (p.event_times, p.event_components, p.skeleton_times, p.skeleton_x,
                  p.skeleton_row_sums):
            a.setflags(write=False)
    return paths


def _split(seeds: list, width: int) -> list[list]:
    """``seeds`` in order, in ceil(n / width) groups whose sizes differ by at most one."""
    n_groups = -(-len(seeds) // width)
    size, extra = divmod(len(seeds), n_groups)
    ends = [i * size + min(i, extra) for i in range(n_groups + 1)]
    return [seeds[a:b] for a, b in zip(ends, ends[1:])]


def _path_bytes(model: ModelSpec, horizon: float, cfg: IntegratorConfig, n_samples: int) -> float:
    """The live state a path of a group holds: ``_PATH_BYTES``,
    ``_SAMPLE_BYTES`` per sample time, ``_EVENT_BYTES`` plus 16 M^2 per
    expected event and, for noisy Euler-Maruyama, 16 bytes per substep for
    the normals it keeps from thinning to the skeleton pass (a uniform each,
    measured 7.7-9.0 B, so the charge is about twice the cost).  The expected
    event count is the horizon times the envelope at the initial memory, an
    undercount for a self-exciting model: the M = 2 benchmark model has 8.1
    events by horizon 5 where it expects 5."""
    m = model.n_components
    events = horizon * float(RateRuntime(model).bounds(model.initial.y[None])[0])
    size = _PATH_BYTES + _SAMPLE_BYTES * n_samples + (_EVENT_BYTES + 16 * m * m) * events
    if not isinstance(cfg.scheme, ExactOU) and not _noiseless(model.coefficients):
        size += 16 * horizon / cfg.scheme.step
    return size


def _simulate_group(model: ModelSpec, horizon: float, cfg: IntegratorConfig,
                    sample_times: np.ndarray, digest: str, seeds: list[int], *,
                    max_events: int = DEFAULT_MAX_EVENTS, reference=None) -> list[Path]:
    """The paths of ``seeds`` from the inputs :func:`_simulate_all` prepared:
    thinned in lockstep while ``_LOCKSTEP_MIN`` of them are live (a narrower
    group never is), then each on its own through :func:`_run_events`, and
    built by one skeleton pass.

    ``reference = (step, max_candidates)`` runs the bound policy of
    :func:`simulate_path_reference`: one dominating rate, the envelope at the
    initial memory plus ``step`` per candidate, serves every live path (each
    has drawn one candidate per iteration, in any grouping), the memory is
    flowed from each path's last event, and the paths stay in lockstep down
    to the last, since ``_run_events`` knows only the envelope, for at most
    ``max_candidates`` iterations."""
    rt = RateRuntime(model)
    n, m = len(seeds), model.n_components
    bank = DrawBank(seeds)
    log = _GroupLog(model, cfg, horizon, sample_times, n)
    ids = np.arange(n)   # live paths; row r of t and y is path ids[r]
    t = np.zeros(n)      # last candidate time, and the memory there (or at the last event)
    y = np.repeat(model.initial.y[None], n, axis=0)
    n_iter = 0           # every live path's candidate count, which bounds its event count
    if reference is not None:
        lam_star, (step, max_candidates) = float(rt.bounds(model.initial.y[None])[0]), reference
    while len(ids) >= (_LOCKSTEP_MIN if reference is None else 1):
        n_iter += 1
        bound = rt.bounds(y) if reference is None else np.full(len(ids), lam_star)
        bad = bound[~(np.isfinite(bound) & (bound > 0.0))]
        if bad.size:
            raise RuntimeError(f"dominating rate must be finite and positive, got {bad[0]}")
        # each path's exponential draw; a path past the horizon draws no pick
        tau = t + -np.log(bank.uniforms(ids)) / bound
        done = tau > horizon
        if done.any():
            k = ids[done]
            log.z_end[k] = log.take_rows(k, np.full(len(k), horizon), bank)[1]
            ids, t, y, tau, bound = (a[~done] for a in (ids, t, y, tau, bound))
        if reference is None:
            y = y_tau = y * np.exp(-rt.alpha * (tau - t)[:, None, None])
        else:
            if n_iter > max_candidates and len(ids):
                raise SimulationLimitError(f"exceeded {max_candidates} dominating events "
                                           f"before t = {tau[0]:.6g}")
            y_tau = y * np.exp(-rt.alpha * (tau - log.t_anchor[ids])[:, None, None])
            lam_star += step
        lam = rt.intensities(y_tau)
        if np.any(lam.sum(axis=1) > bound * (1.0 + 1e-9)):
            raise RuntimeError("dominating rate violated; rate functions inconsistent")
        # the 0-based component picked by each scaled uniform; m if rejected
        u = bank.uniforms(ids) * bound
        comp = (np.cumsum(lam, axis=1) <= u[:, None]).sum(axis=1)
        acc = np.flatnonzero(comp < m)
        if acc.size:
            k, tau_k = ids[acc], tau[acc]
            y_k = y_tau[acc]
            log.record_rows(k, tau_k, comp[acc] + 1, *log.take_rows(k, tau_k, bank), y_k)
            y[acc] = y_k
            if n_iter >= max_events:
                worst = int(np.argmax(log.n_events[k]))
                if log.n_events[k[worst]] >= max_events:
                    raise _limit_error(max_events, float(tau_k[worst]))
        t = tau
    for k, t_k, y_k in zip(ids.tolist(), t.tolist(), y.reshape(len(ids), m * m).tolist()):
        _run_events(rt, log, k, bank.stream(k), t_k, y_k, max_events)
    seeds = bank.seeds   # each masked to 64 bits, as its stream was seeded
    del bank, y   # before the skeleton pass
    return _skeleton(log, seeds, digest)[0]


# The candidate loop of a path thinned on its own (_run_events), its memory
# in locals y0..y{M^2-1}; every model value is an argument of the factory f.
_ONE_PATH = """\
from bisect import bisect_left
from math import inf
from numpy import add, exp, log

reduce = add.reduce

def f(decay, gammas, fz, amps, horizon, at, eps, rec, z, z_end, t_anchor, los, n_evs, limit,
      count, {ats}):
    {scalars}
    {amps}, = amps
    record, z_append, z_bytes = rec.extend, z.append, z.frombytes

    def run(k, rng, t, y, max_events):
        uniform, uniforms = rng.uniform, rng.uniforms
        t0, lo, n_events = float(t_anchor[k]), int(los[k]), int(n_evs[k])
        {ys}, = y
        try:
            while True:
                bound = fz + {envelope}
                if not 0.0 < bound < inf:
                    raise RuntimeError(
                        f"dominating rate must be finite and positive, got {{bound}}")
                tau = t - float(log(uniform())) / bound   # an exponential at rate bound
                if tau > horizon:
                    {take_horizon}
                    z_end[k] = z0
                    return t, [{ys}]
                dt = tau - t
                {es}, = {exps}
                {body}
                if {c_last} > bound * (1.0 + 1e-9):
                    raise RuntimeError("dominating rate violated; rate functions inconsistent")
                u, t = uniform() * bound, tau
                {pick}
                {take_tau}
                lo = hi
                while abs(at[lo] - tau) <= eps:   # step past the sample times on tau
                    lo += 1
                record((k, tau, comp, lo, z0, {ss}, {ys}))
                t0, n_events = tau, n_events + 1
                if n_events >= max_events:
                    raise limit(max_events, tau)
        finally:
            t_anchor[k], los[k], n_evs[k] = t0, lo, n_events

    return run
"""

# n, a segment's normals up to stop, as _GroupLog._count counts them
_COUNT = {"ou": "n = hi - lo + 1 if hi > lo or {stop} > t0 else 0",
          "em": "n = count(t0, lo, hi, {stop})"}


@lru_cache(maxsize=None)
def _one_path(m: int, noise: str | None):
    """The factory of the candidate loop for M = m and a noise kind
    (``"ou"``, ``"em"``, or None without noise), compiled once per pair."""
    take = ["hi = bisect_left(at, {stop} - eps, lo)", "z0 = len(z)"]
    if noise:
        take += [_COUNT[noise], "if n == 1:", "    z_append(uniform())   # _walk makes normals",
                 "elif n:", "    z_bytes(uniforms(n).tobytes())"]
    # the first component whose running sum exceeds u adds its column of c
    pick = []
    for j in range(m):
        pick += [f"{'elif' if j else 'if'} u < c{j}:", f"    comp = {j + 1}"]
        pick += [f"    y{i} = y{i} + a{i}" for i in range(j, m * m, m)]
    ind = "\n" + " " * 16
    return _compiled(_ONE_PATH.format(
        **_fragments(m, 16), amps=", ".join(f"a{i}" for i in range(m * m)), c_last=f"c{m - 1}",
        pick=ind.join(pick + ["else:", "    continue"]), take_tau=ind.join(take).format(stop="tau"),
        take_horizon=(ind + "    ").join(take).format(stop="horizon")))


def _run_events(rt: RateRuntime, log: _GroupLog, k: int, rng: RandomStream, t: float,
                y: list, max_events: int) -> tuple[float, list]:
    """Thin path k of ``log`` from memory ``y`` (a row-major list) at time
    ``t`` up to the horizon in the group's loop (:func:`_one_path`),
    recording every accepted event and then the last segment.  The path's
    anchor time, next sample index and event count stay in locals, and go
    back to ``log`` when it ends.
    Returns the last candidate time (``t`` if none) and the memory there;
    raises :class:`SimulationLimitError` once it holds ``max_events`` events.
    """
    if log.thin is None:
        noise = ("ou" if log.ou else "em") if log.noisy else None
        log.thin = _one_path(log.m, noise)(
            rt.decay, rt.gammas, rt.f_zero_sum, log.c, log.horizon, log.sample_floats, log.eps,
            log.rec, log.z, log.z_end, log.t_anchor, log.lo, log.n_events, _limit_error,
            log._count, *(f.on_floats() for f in rt.fs))
    return log.thin(k, rng, t, y, max_events)


def _from_first_candidates(model: ModelSpec, cfg: IntegratorConfig, horizon: float,
                           rng: RandomStream, taus: np.ndarray,
                           bound: float) -> tuple[np.ndarray, np.ndarray]:
    """x and memory at the horizon of paths from ``model.initial`` whose first
    candidate at rate ``bound`` falls at each of ``taus`` (before the
    horizon), thinned on from ``rng`` one after another; for the Monte Carlo
    generator check."""
    rt = RateRuntime(model)
    log = _GroupLog(model, cfg, horizon, np.empty(0), len(taus))
    y0, y_end = model.initial.y.ravel().tolist(), np.empty((len(taus), len(rt.decay)))
    for k, tau in enumerate(taus.tolist()):
        y, rs, cum = rt.flow(y0, tau)
        u = rng.uniform() * bound
        if u < cum[-1]:   # accepted, as in _run_events; no sample time lies before tau
            z0, y_pre = len(log.z), np.reshape(y, (1, *rt.alpha.shape))
            log.z.frombytes(rng.uniforms(log._count(0.0, 0, 0, tau)).tobytes())
            log.record_rows(np.array([k]), tau, bisect_right(cum, u) + 1, 0, z0, y_pre)
            y = y_pre.ravel().tolist()
        t, y = _run_events(rt, log, k, rng, tau, y, DEFAULT_MAX_EVENTS)
        y_end[k] = np.multiply(y, np.exp(rt.decay * (horizon - t)))
    return _skeleton(log, [0] * len(taus), "")[1], y_end.reshape(-1, *rt.alpha.shape)


def _limit_error(max_events: int, t: float) -> SimulationLimitError:
    return SimulationLimitError(f"exceeded {max_events} events before t = {t:.6g} "
                                "(supercritical model or horizon too long?)")


def reference_rate_step(model: ModelSpec) -> float:
    """Per-event increment M * gamma_bar * c_bar of the dominating process rate."""
    return (model.n_components
            * float(model.lipschitz_constants().max())
            * float(np.abs(model.kernel.c).max()))


def simulate_path_reference(model: ModelSpec, horizon: float, cfg: IntegratorConfig,
                            seed: int, *, sample_at=None,
                            max_candidates: int = DEFAULT_MAX_EVENTS) -> Path:
    """Textbook dominating-process construction; same law, checks and
    horizon rule as :func:`simulate_path`.

    The dominating rate starts at the Lipschitz envelope of the initial
    state and gains :func:`reference_rate_step` at every dominating event,
    accepted or not.  Tractable only over short horizons: the dominating
    count grows exponentially with the horizon.
    """
    return _simulate_reference(model, horizon, cfg, [seed], sample_at=sample_at,
                               max_candidates=max_candidates)[0]


def _simulate_reference(model: ModelSpec, horizon: float, cfg: IntegratorConfig,
                        seeds: list[int], *, sample_at=None,
                        max_candidates: int = DEFAULT_MAX_EVENTS) -> list[Path]:
    """:func:`simulate_path_reference` for each of ``seeds``, in the groups of
    :func:`_simulate_all`, whose first path over ``max_candidates`` trips the
    cap; the construction caps candidates, not events."""
    return _simulate_all(model, horizon, cfg, seeds, sample_at=sample_at, max_events=math.inf,
                         reference=(reference_rate_step(model), max_candidates))


def simulate_ensemble(model: ModelSpec, horizon: float, cfg: IntegratorConfig,
                      master_seed: int, n_paths: int, *, workers: int = 1,
                      **kwargs) -> list[Path]:
    """Independent paths with per-path seeds derived from (master_seed, index);
    ``kwargs`` are those of :func:`simulate_path`.

    The result is identical for any worker count: path i always uses
    ``derive_path_seed(master_seed, i)`` and results are ordered by index.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return _simulate_all(model, horizon, cfg, derive_path_seeds(master_seed, n_paths).tolist(),
                         workers, **kwargs)

