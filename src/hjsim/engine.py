"""Exact event-driven simulation of the coupled process z = (x, y).

The default engine is acceptance-rejection thinning with a local dominating
rate: candidates arrive at the Lipschitz-envelope rate B(y) of the current
memory state, which dominates the total intensity along the whole decay
flow until the next event (row absolute sums only shrink between events).
A candidate at time tau is attributed to component i with probability
lambda_i(y(tau-))/B using a single uniform that partitions [0, 1] into
M + 1 ordered intervals, the last being the rejection mass; after a
rejection the bound is recomputed at the flowed state, so it tightens as
the memory decays.  The rates and the bound come from
:class:`hjsim.intensity.RateRuntime`.  ``_run_events`` thins one path at a
time; it also continues the candidate-bearing paths of the Monte Carlo
generator check in :mod:`hjsim.stability`.

Ensembles thin their paths in lockstep groups (``_simulate_group``), held
as arrays over the paths: the memory flow, the rates, the envelope and the
component pick are array operations over the live paths.  Each path keeps
its own counter-based stream as a row of a :class:`hjsim.rng.DrawBank`, so
its exponential and pick draws for all paths are one gather.  An accepted
event adds its column of c, records the pre/post row sums and applies the
jump map for all accepted paths at once; an exact-OU path with no sample
before the event advances x in the same array step.  Paths whose segment
crosses sample times, and Euler-Maruyama paths, advance x one at a time with
the scalar stepper and normals from their bank row.  Records go to a group
log that one stable sort by path turns into paths at the end.  No path's
draws are reordered, so every path is byte-identical to the one
:func:`simulate_path` makes from its seed.  A budget on the live state
(buffered draws and log records per path) sets the group width, so long
grids give narrow groups.  Below ``_LOCKSTEP_MIN`` live paths an iteration
costs more than serial thinning, and each remaining path continues through
``_run_events`` with a ``_PathBuilder`` resumed from its state and stream;
a single path never enters the lockstep loop.

``simulate_path_reference`` keeps the alternative textbook construction as
a cross-validation oracle: a one-dimensional dominating counting process
whose rate starts at the envelope of the initial state and gains a fixed
increment M * gamma_bar * c_bar at every dominating event (with no decay),
each dominating event then being thinned by the true intensities.  Both
engines produce the same law; the reference construction is exponentially
wasteful in time and is only practical over short horizons.

The memory matrix y is never discretised: its flow is applied in closed
form at candidate and sample times.  Only the diffusion needs a scheme.

The skeleton and the diffusion advance one inter-event segment at a time.
All thinning draws up to an accepted event precede the diffusion draws of
the segment it closes, so that segment's normals are contiguous in the
stream and are drawn as one block: the same draws a sample-by-sample
advance would make.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from scipy.special import ndtri

from .diffusion import (ExactOU, IntegratorConfig, _advance_segment, _apply_state_jumps,
                        _exp_each, _ou_moments, apply_state_jump)
from .intensity import RateRuntime
from .model import ConstantDiffusion, ModelSpec, State, model_digest
from .rng import DrawBank, RandomStream, derive_path_seed

__all__ = [
    "SimulationLimitError",
    "CandidateEvent",
    "Path",
    "next_event",
    "simulate_path",
    "simulate_path_reference",
    "simulate_ensemble",
    "reference_rate_step",
    "DEFAULT_MAX_EVENTS",
]

DEFAULT_MAX_EVENTS = 10_000_000

# Below this many live paths a lockstep iteration costs more than thinning
# the paths one at a time.
_LOCKSTEP_MIN = 4
# Live state a lockstep group may hold, counted as 8 KB per path and 64
# bytes of log per sample time.  A short path holds about 3 KB at the peak
# (buffered draws, anchor state, log records and their assembled copy), but
# groups wider than about 250 short paths run no faster and raise the
# process's peak memory.
_GROUP_BUDGET = 1 << 21
_ROW_BYTES = 8192
_SAMPLE_BYTES = 64


class SimulationLimitError(RuntimeError):
    """Event-count circuit breaker tripped; the model is likely supercritical
    (interaction spectral radius >= 1) or the horizon is too long."""


@dataclass(frozen=True)
class CandidateEvent:
    """One thinning candidate: ``accepted_component`` is 1..M, or 0 if rejected."""

    time: float
    accepted_component: int


@dataclass(frozen=True, eq=False)
class Path:
    """One realised trajectory.

    Events carry 1-based component labels and strictly increasing times in
    (0, horizon].  The skeleton records (time, x, row sums of y) at time 0,
    at every global multiple of the output grid step, at the horizon, and
    twice at every event time (the values immediately before and after the
    jump), so skeleton times are nondecreasing with equal times exactly at
    jumps.
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
        for name in ("event_times", "skeleton_times", "skeleton_x"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        comp = np.asarray(self.event_components, dtype=np.int32)
        comp.setflags(write=False)
        object.__setattr__(self, "event_components", comp)
        rs = np.asarray(self.skeleton_row_sums, dtype=float)
        rs.setflags(write=False)
        object.__setattr__(self, "skeleton_row_sums", rs)
        et, st = self.event_times, self.skeleton_times
        if not (et[1:] > et[:-1]).all():
            raise ValueError("event times must be strictly increasing")
        if (st[1:] < st[:-1]).any():
            raise ValueError("skeleton times must be nondecreasing")

    @property
    def n_events(self) -> int:
        return len(self.event_times)

    @property
    def n_components(self) -> int:
        return self.skeleton_row_sums.shape[1]

    @property
    def events(self) -> list[tuple[float, int]]:
        return [(float(t), int(c)) for t, c in zip(self.event_times, self.event_components)]

    @property
    def skeleton(self) -> list[tuple[float, float, np.ndarray]]:
        return [(float(t), float(x), self.skeleton_row_sums[i])
                for i, (t, x) in enumerate(zip(self.skeleton_times, self.skeleton_x))]


def _pick_component(lam: np.ndarray, u_scaled: float) -> int:
    """1-based component for a scaled uniform below sum(lam); 0 if rejected.

    The uniform partitions [0, bound] into M + 1 ordered intervals, interval
    i having length lam[i-1], the remainder being the rejection mass.
    """
    cum = np.cumsum(lam)
    if u_scaled >= cum[-1]:
        return 0
    return int(np.searchsorted(cum, u_scaled, side="right")) + 1


def _next_event(rt: RateRuntime, y: np.ndarray, clock: float, horizon: float,
                rng: RandomStream, trace: Optional[list] = None):
    """First accepted event strictly after ``clock``; y is the state at ``clock``.

    Returns (tau, component, y_at_tau_pre_jump), or (t, None, y_at_t) for the
    last candidate time t (``clock`` if none) when no event occurs before the
    horizon.  Does not mutate ``y``.
    """
    t = clock
    y_cur = y
    bound = rt.bound(y_cur)
    while True:
        if not (bound > 0.0 and math.isfinite(bound)):
            raise RuntimeError(f"dominating rate must be finite and positive, got {bound}")
        tau = t + rng.exponential(bound)
        if tau > horizon:
            return t, None, y_cur
        y_cur = y_cur * np.exp(-rt.alpha * (tau - t))
        lam = rt.intensities(y_cur)
        total = float(lam.sum())
        if total > bound * (1.0 + 1e-9):
            raise RuntimeError("dominating rate violated; rate functions inconsistent")
        comp = _pick_component(lam, rng.uniform() * bound)
        if trace is not None:
            trace.append(CandidateEvent(tau, comp))
        if comp:
            return tau, comp, y_cur
        bound = rt.bound(y_cur)
        t = tau


def next_event(model: ModelSpec, state: State, clock: float, horizon: float,
               rng: RandomStream, trace: Optional[list] = None) -> Optional[tuple[float, int]]:
    """Time and 1-based component of the first event after ``clock``, or None
    if no event occurs before ``horizon``."""
    tau, comp, _ = _next_event(RateRuntime(model), np.asarray(state.y, dtype=float), clock,
                               horizon, rng, trace)
    return None if comp is None else (tau, comp)


def _build_sample_times(horizon: float, grid_dt: float, extra) -> np.ndarray:
    """Sorted grid multiples, extra times and the horizon, with times closer
    than ``eps`` to the last kept one dropped (scanning in order)."""
    eps = 1e-12 * max(1.0, horizon)
    n_grid = horizon / grid_dt + eps
    if n_grid > DEFAULT_MAX_EVENTS:
        raise SimulationLimitError(
            f"a grid step of {grid_dt:.6g} over horizon {horizon:.6g} gives about "
            f"{n_grid:.3g} samples, more than {DEFAULT_MAX_EVENTS}")
    grid = np.arange(1, int(n_grid) + 1) * grid_dt
    parts = [grid[grid <= horizon + eps]]
    if extra is not None:
        extra = np.fromiter(map(float, extra), dtype=float)
        parts.append(extra[(0.0 < extra) & (extra <= horizon + eps)])
    parts.append([horizon])
    times = np.sort(np.minimum(np.concatenate(parts), horizon))
    keep = np.ones(len(times), dtype=bool)
    # A time more than eps after its predecessor is also more than eps after
    # the last kept time, so only the close pairs need the sequential scan.
    last = 0
    for i in (np.flatnonzero(np.diff(times) <= eps) + 1).tolist():
        last = i - 1 if keep[i - 1] else last
        keep[i] = times[i] - times[last] > eps
    return times[keep]


class _Segments:
    """What advancing x over an inter-event segment needs of a run: the
    coefficients, the scheme, the decay rates and the sample times."""

    __slots__ = ("coeffs", "cfg", "alpha", "samples", "eps")

    def __init__(self, model: ModelSpec, cfg: IntegratorConfig, horizon: float,
                 sample_times: np.ndarray):
        self.coeffs = model.coefficients
        self.cfg = cfg
        self.alpha = model.kernel.alpha
        self.samples = sample_times
        self.eps = 1e-12 * max(1.0, horizon)

    def advance(self, x: float, t0: float, y: np.ndarray, si: int, t_stop: float, rng):
        """Advance x from ``t0`` (where the memory is ``y``) to ``t_stop``
        through the samples from index ``si`` that lie before ``t_stop - eps``.

        Returns x at ``t_stop``, the index of the next sample and the block
        (times, x, row sums) of those samples, times and x as lists, or None
        if there are none.
        The segment's normals are the next draws of ``rng``, taken as one
        block.
        """
        samples = self.samples
        if si == len(samples) or samples[si] >= t_stop - self.eps:
            if t_stop > t0:
                x = _advance_segment(x, (t_stop - t0,), self.coeffs, self.cfg, rng)[0]
            return x, si, None
        hi = int(np.searchsorted(samples, t_stop - self.eps))
        times = samples[si:hi]
        ts = times.tolist()
        dts = [b - a for a, b in zip([t0] + ts, ts + [t_stop])]
        xs = _advance_segment(x, dts, self.coeffs, self.cfg, rng)
        flow = np.exp(-self.alpha[None] * (times - t0)[:, None, None])
        return xs[-1], hi, (ts, xs[:-1], (y[None] * flow).sum(axis=2))


class _PathBuilder:
    """Skeleton/diffusion bookkeeping of one path, for the serial thinning
    loop, the reference engine and the Monte Carlo generator check (which
    passes no sample times).

    y is kept anchored at the last event time and flowed in closed form to
    sample times; x is advanced lazily so rejected candidates never touch
    the diffusion.  ``jump`` and ``finish`` advance through every sample of
    the segment since the anchor at once.  They must be called only after
    the segment's last thinning draw: the segment's normals are then the
    next draws of the stream, taken as one block.
    """

    def __init__(self, model: ModelSpec, cfg: IntegratorConfig, rng: RandomStream,
                 horizon: float, sample_times: np.ndarray):
        self.seg = _Segments(model, cfg, horizon, sample_times)
        self.c = model.kernel.c
        self.coeffs = model.coefficients
        self.rng = rng
        self.horizon = horizon
        self.si = 0
        self.x = model.initial.x
        self.y = np.array(model.initial.y, dtype=float)
        self.t_anchor = 0.0
        self.n_prior = 0
        self.ev_t: list[float] = []
        self.ev_c: list[int] = []
        self.sk_t: list[float] = [0.0]
        self.sk_x: list[float] = [self.x]
        self.sk_rs: list[np.ndarray] = [self.y.sum(axis=1)[None]]

    def resume(self, x: float, y: np.ndarray, t_anchor: float, si: int, n_prior: int) -> None:
        """Continue a path whose records up to its last event, at
        ``t_anchor``, are kept elsewhere: the lists hold only what follows."""
        self.x, self.y, self.t_anchor, self.si, self.n_prior = x, y, t_anchor, si, n_prior
        self.sk_t, self.sk_x, self.sk_rs = [], [], []

    def _advance(self, t_stop: float) -> float:
        """Record the samples in (anchor, t_stop - eps) and advance x to
        t_stop; returns the time of the last record (the anchor if none)."""
        self.x, self.si, block = self.seg.advance(self.x, self.t_anchor, self.y, self.si,
                                                  t_stop, self.rng)
        if block is None:
            return self.t_anchor
        times, xs, rs = block
        self.sk_t.extend(times)
        self.sk_x.extend(xs)
        self.sk_rs.append(rs)
        return self.sk_t[-1]

    def jump(self, tau: float, comp: int, y_pre: np.ndarray) -> None:
        """Record the pre/post skeleton pair and apply the event updates."""
        self._advance(tau)
        samples, eps = self.seg.samples, self.seg.eps
        while self.si < len(samples) and abs(samples[self.si] - tau) <= eps:
            self.si += 1
        x_pre = self.x
        rows = np.empty((2, len(y_pre)))
        y_pre.sum(axis=1, out=rows[0])
        y_pre[:, comp - 1] += self.c[:, comp - 1]
        y_pre.sum(axis=1, out=rows[1])
        self.x = apply_state_jump(self.x, self.coeffs)
        self.sk_t += (tau, tau)
        self.sk_x += (x_pre, self.x)
        self.sk_rs.append(rows)
        self.ev_t.append(tau)
        self.ev_c.append(comp)
        self.y = y_pre
        self.t_anchor = tau

    def finish(self) -> None:
        last = self._advance(self.horizon)
        if self.horizon - last > self.seg.eps:
            flow = np.exp(-self.seg.alpha * (self.horizon - self.t_anchor))
            self.sk_t.append(self.horizon)
            self.sk_x.append(self.x)
            self.sk_rs.append((self.y * flow).sum(axis=1)[None])

    def to_path(self, seed: int, digest: str) -> Path:
        return Path(
            event_times=np.array(self.ev_t, dtype=float),
            event_components=np.array(self.ev_c, dtype=np.int32),
            skeleton_times=np.array(self.sk_t, dtype=float),
            skeleton_x=np.array(self.sk_x, dtype=float),
            skeleton_row_sums=np.concatenate(self.sk_rs),
            horizon=self.horizon,
            seed=seed,
            model_hash=digest,
        )


class _GroupLog:
    """The skeleton and event records of a lockstep group, appended in time
    order for each path as float blocks: skeleton rows (path, time, x, row
    sums) and event rows (path, time, component).  One stable sort by path
    assembles all paths at the end."""

    def __init__(self, m: int):
        self.m = m
        self.sk: list[np.ndarray] = []
        self.ev: list[np.ndarray] = []

    def samples(self, k, t, x, rs: np.ndarray) -> None:
        """Log skeleton records of path(s) ``k``; arguments broadcast."""
        blk = np.empty((len(rs), 3 + self.m))
        blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3:] = k, t, x, rs
        self.sk.append(blk)

    def builder(self, k: int, b: _PathBuilder) -> None:
        """The records a resumed builder made for path k."""
        if b.sk_t:
            self.samples(k, b.sk_t, b.sk_x, np.concatenate(b.sk_rs))
        if b.ev_t:
            self.ev.append(np.column_stack((np.full(len(b.ev_t), k), b.ev_t, b.ev_c)))

    @staticmethod
    def _by_path(blocks: list, n: int, cols) -> list[list[np.ndarray]]:
        """Each of the (column, dtype) ``cols`` of the records, sorted
        (stably) by path and cut into the paths' parts."""
        whole = np.concatenate(blocks)
        blocks.clear()
        rows = whole[:, 0].astype(np.intp)
        order = np.argsort(rows, kind="stable")
        ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
        out = []
        for col, dtype in cols:
            part = whole[order, col].astype(dtype, copy=False)
            out.append([part[a:b] for a, b in zip([0] + ends, ends)])
        return out

    def paths(self, horizon: float, seeds: list[int], digest: str) -> list[Path]:
        n = len(seeds)
        self.ev.append(np.empty((0, 3)))
        ev_t, ev_c = self._by_path(self.ev, n, ((1, float), (2, np.int32)))
        sk_t, sk_x, sk_rs = self._by_path(self.sk, n, ((1, float), (2, float),
                                                       (slice(3, None), float)))
        return [Path(event_times=ev_t[k], event_components=ev_c[k], skeleton_times=sk_t[k],
                     skeleton_x=sk_x[k], skeleton_row_sums=sk_rs[k], horizon=horizon,
                     seed=seeds[k], model_hash=digest) for k in range(n)]


def simulate_path(model: ModelSpec, horizon: float, cfg: IntegratorConfig, seed: int,
                  *, sample_at=None, max_events: int = DEFAULT_MAX_EVENTS) -> Path:
    """Simulate one trajectory over (0, horizon], fully determined by
    (model, horizon, cfg, seed).

    ``sample_at`` optionally adds extra skeleton sample times on top of the
    regular grid.  Raises :class:`SimulationLimitError` after ``max_events``
    accepted events, or before simulating when the grid would hold more than
    ``DEFAULT_MAX_EVENTS`` samples.
    """
    return _simulate_all(model, horizon, cfg, [seed], sample_at=sample_at,
                         max_events=max_events)[0]


def _simulate_all(model: ModelSpec, horizon: float, cfg: IntegratorConfig, seeds: list[int],
                  workers: int = 1, sample_at=None, **kwargs) -> list[Path]:
    """One path per seed, in order; the checks, the sample times and the
    model digest are done once for all of them.  Paths run in groups of at
    most ``_GROUP_BUDGET`` bytes of live state; at most one worker process
    runs per group and per CPU."""
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    cfg.validate_for(model.coefficients)
    sample_times = _build_sample_times(horizon, cfg.grid_dt, sample_at)
    run = partial(_simulate_group, model, horizon, cfg, sample_times, model_digest(model),
                  **kwargs)
    workers = min(workers, len(seeds), os.cpu_count() or 1)
    width = max(1, min(_GROUP_BUDGET // (_ROW_BYTES + _SAMPLE_BYTES * len(sample_times)),
                       -(-len(seeds) // max(workers, 1))))
    groups = [seeds[i:i + width] for i in range(0, len(seeds), width)]
    if workers <= 1:
        return [p for group in groups for p in run(group)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [p for paths in pool.map(run, groups) for p in paths]


def _simulate_group(model: ModelSpec, horizon: float, cfg: IntegratorConfig,
                    sample_times: np.ndarray, digest: str, seeds: list[int], *,
                    max_events: int = DEFAULT_MAX_EVENTS) -> list[Path]:
    """The paths of ``seeds`` from the inputs :func:`_simulate_all` prepared:
    thinned in lockstep while ``_LOCKSTEP_MIN`` of them are live, then each
    on its own through :func:`_run_events`."""
    rt = RateRuntime(model)
    if len(seeds) < _LOCKSTEP_MIN:
        paths = []
        for seed in seeds:
            builder = _PathBuilder(model, cfg, RandomStream(seed), horizon, sample_times)
            _run_events(rt, builder, 0.0, builder.y, max_events)
            builder.finish()
            paths.append(builder.to_path(seed, digest))
        return paths

    seg = _Segments(model, cfg, horizon, sample_times)
    coeffs, eps = model.coefficients, seg.eps
    ou = isinstance(cfg.scheme, ExactOU)
    noiseless = isinstance(coeffs.diffusion, ConstantDiffusion) and coeffs.diffusion.value == 0.0
    n, m = len(seeds), model.n_components
    # c_added[j] holds column j of c in column j and -0.0 elsewhere: adding
    # -0.0 leaves every float as it is, so an event of component j + 1 adds
    # c_added[j] to the memory.
    c_added = np.full((m, m, m), -0.0)
    for j in range(m):
        c_added[j, :, j] = model.kernel.c[:, j]
    bank = DrawBank(seeds)
    log = _GroupLog(m)
    # The state of path k at its last event (its anchor): x, time, memory,
    # next sample index and event count.
    x = np.full(n, model.initial.x)
    t_anchor = np.zeros(n)
    y_anchor = np.repeat(model.initial.y[None], n, axis=0)
    si = np.zeros(n, dtype=np.intp)
    n_events = np.zeros(n, dtype=np.intp)
    samples = np.append(sample_times, math.inf)
    log.samples(np.arange(n), 0.0, x, y_anchor.sum(axis=2))

    def advance(rows: np.ndarray, t_stop: np.ndarray) -> np.ndarray:
        """Advance x of paths ``rows`` to ``t_stop``, logging the samples
        before it; returns the time of each path's last record."""
        last = t_anchor[rows]
        # exact-OU paths without samples before t_stop take one array step;
        # the others advance one at a time
        if ou:
            no_samples = samples[si[rows]] >= t_stop - eps
            step = no_samples & (t_stop > last)
            if step.any():
                k = rows[step]
                mean, var = _ou_moments(x[k], t_stop[step] - last[step], coeffs.drift,
                                        coeffs.diffusion.value, _exp_each)
                x[k] = mean if noiseless else mean + np.sqrt(var) * ndtri(bank.uniforms(k)[0])
            if no_samples.all():
                return last
            own = np.flatnonzero(~no_samples)
        else:
            own = np.arange(len(rows))
        for j, k, x_k, t0, si_k, t1 in zip(own.tolist(), *(
                a[own].tolist() for a in (rows, x[rows], last, si[rows], t_stop))):
            x[k], si[k], block = seg.advance(x_k, t0, y_anchor[k], si_k, t1, bank.row(k))
            if block is not None:
                times, xs, rs = block
                log.samples(k, times, xs, rs)
                last[j] = times[-1]
        return last

    ids = np.arange(n)   # live paths; row r of t and y is path ids[r]
    t = np.zeros(n)      # last candidate time, and the memory there
    y = y_anchor.copy()
    n_iter = 0           # bounds every path's event count
    while len(ids) >= _LOCKSTEP_MIN:
        n_iter += 1
        bound = rt.bounds(y)
        bad = bound[~(np.isfinite(bound) & (bound > 0.0))]
        if bad.size:
            raise RuntimeError(f"dominating rate must be finite and positive, got {bad[0]}")
        # each path's exponential draw, then the uniform that picks the component
        u_exp, u_pick = bank.uniforms(ids, 2)
        tau = t + -np.log(u_exp) / bound
        done = tau > horizon
        if done.any():
            k = ids[done]
            bank.unread(k)   # a path past the horizon draws no pick
            last = advance(k, np.full(len(k), horizon))
            k = k[horizon - last > eps]
            flow = np.exp(-rt.alpha * (horizon - t_anchor[k])[:, None, None])
            log.samples(k, horizon, x[k], (y_anchor[k] * flow).sum(axis=2))
            keep = ~done
            ids, t, y, tau, bound = ids[keep], t[keep], y[keep], tau[keep], bound[keep]
            u_pick = u_pick[keep]
        y = y * np.exp(-rt.alpha * (tau - t)[:, None, None])
        lam = rt.intensities(y)
        if np.any(lam.sum(axis=1) > bound * (1.0 + 1e-9)):
            raise RuntimeError("dominating rate violated; rate functions inconsistent")
        # the 0-based component picked by each scaled uniform; m if rejected
        u = u_pick * bound
        comp = (np.cumsum(lam, axis=1) <= u[:, None]).sum(axis=1)
        acc = np.flatnonzero(comp < m)
        if acc.size:
            k, tau_k, comp_k = ids[acc], tau[acc], comp[acc]
            advance(k, tau_k)
            # step past the samples that fall on the event time
            s = si[k]
            near = np.abs(samples[s] - tau_k) <= eps
            while near.any():
                s = s + near
                near = np.abs(samples[s] - tau_k) <= eps
            si[k] = s
            # the pre- and post-jump records, as rows 0 and 1 of each pair
            pair = np.empty((len(acc), 2, 3 + m))
            pair[:, :, 0] = k[:, None]
            pair[:, :, 1] = tau_k[:, None]
            pair[:, 0, 2] = x[k]
            y_k = y[acc]
            y_k.sum(axis=2, out=pair[:, 0, 3:])
            y_k += c_added[comp_k]
            y_k.sum(axis=2, out=pair[:, 1, 3:])
            pair[:, 1, 2] = x[k] = _apply_state_jumps(pair[:, 0, 2], coeffs)
            log.sk.append(pair.reshape(-1, 3 + m))
            events = np.empty((len(acc), 3))
            events[:, 0], events[:, 1], events[:, 2] = k, tau_k, comp_k + 1
            log.ev.append(events)
            y[acc] = y_anchor[k] = y_k
            t_anchor[k] = tau_k
            n_events[k] += 1
            if n_iter >= max_events:
                worst = int(np.argmax(n_events[k]))
                _check_events(int(n_events[k[worst]]), float(tau_k[worst]), max_events)
        t = tau
    for k, t_k, y_k in zip(ids.tolist(), t.tolist(), y):
        builder = _PathBuilder(model, cfg, bank.stream(k), horizon, sample_times)
        builder.resume(float(x[k]), y_anchor[k].copy(), float(t_anchor[k]), int(si[k]),
                       int(n_events[k]))
        _run_events(rt, builder, t_k, y_k, max_events)
        builder.finish()
        log.builder(k, builder)
    del bank, y, y_anchor   # before the log doubles for its assembly
    return log.paths(horizon, seeds, digest)


def _run_events(rt: RateRuntime, builder: _PathBuilder, t: float, y: np.ndarray,
                max_events: int) -> tuple[float, np.ndarray]:
    """Thin from memory ``y`` at time ``t`` up to the builder's horizon,
    recording every accepted event in ``builder``.

    Returns the last candidate time (``t`` if none) and the memory there.
    Raises :class:`SimulationLimitError` once the path holds ``max_events``
    events.
    """
    while True:
        t, comp, y = _next_event(rt, y, t, builder.horizon, builder.rng)
        if comp is None:
            return t, y
        builder.jump(t, comp, y)
        _check_events(builder.n_prior + len(builder.ev_t), t, max_events)


def _check_events(n_events: int, t: float, max_events: int) -> None:
    if n_events >= max_events:
        raise SimulationLimitError(
            f"exceeded {max_events} events before t = {t:.6g} "
            "(supercritical model or horizon too long?)")


def reference_rate_step(model: ModelSpec) -> float:
    """Per-event increment M * gamma_bar * c_bar of the dominating process rate."""
    return (model.n_components
            * float(model.lipschitz_constants().max())
            * float(np.abs(model.kernel.c).max()))


def simulate_path_reference(model: ModelSpec, horizon: float, cfg: IntegratorConfig,
                            seed: int, *, k2_bound: float | None = None,
                            sample_at=None, max_candidates: int = DEFAULT_MAX_EVENTS,
                            trace: Optional[list] = None) -> Path:
    """Textbook dominating-process construction; same law as :func:`simulate_path`.

    The dominating rate starts at the Lipschitz envelope of the initial
    state (or the envelope over a memory ball of l1 radius ``k2_bound``, if
    given) and gains :func:`reference_rate_step` at every dominating event,
    accepted or not.  Tractable only over short horizons: the dominating
    count grows exponentially with the horizon.  A zero horizon yields the
    empty path.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    cfg.validate_for(model.coefficients)
    rng = RandomStream(seed)
    rt = RateRuntime(model)
    builder = _PathBuilder(model, cfg, rng, horizon,
                           _build_sample_times(horizon, cfg.grid_dt, sample_at))
    lam_star = rt.bound(builder.y)
    if k2_bound is not None:
        lam_star = max(lam_star,
                       rt.f_zero_sum + float(rt.gammas.max()) * float(k2_bound))
    step = reference_rate_step(model)
    t_cand = 0.0
    n_cand = 0
    while True:
        tau = t_cand + rng.exponential(lam_star)
        if tau > horizon:
            builder.finish()
            break
        n_cand += 1
        if n_cand > max_candidates:
            raise SimulationLimitError(
                f"exceeded {max_candidates} dominating events before t = {tau:.6g}")
        y_pre = builder.y * np.exp(-rt.alpha * (tau - builder.t_anchor))
        lam = rt.intensities(y_pre)
        if float(lam.sum()) > lam_star * (1.0 + 1e-9):
            raise RuntimeError("dominating rate violated in reference construction")
        comp = _pick_component(lam, rng.uniform() * lam_star)
        if trace is not None:
            trace.append(CandidateEvent(tau, comp))
        if comp:
            builder.jump(tau, comp, y_pre)
        lam_star += step
        t_cand = tau
    return builder.to_path(seed, model_digest(model))


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
    return _simulate_all(model, horizon, cfg,
                         [derive_path_seed(master_seed, i) for i in range(n_paths)],
                         workers, **kwargs)

