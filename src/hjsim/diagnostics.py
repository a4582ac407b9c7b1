"""Long-run diagnostics from simulated paths: ergodic time averages with
batch-means errors, the pooled stationary histogram of x, a two-start
total-variation mixing proxy, and autocorrelation decay fits.

The mixing coefficient itself is not estimable from finitely many paths;
``mixing_curve`` estimates the total variation distance between the time-t
laws started from two different states, on shared histograms of
(x, row sums of y), and fits an exponential decay over the range where the
estimate sits above its own resampling noise floor.  Both this and the
autocorrelation fit are standard proxies, not the coefficient itself.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .diffusion import IntegratorConfig
from .engine import Path, _grid_multiples, _sample_eps, simulate_ensemble
from .intensity import RateRuntime
from .model import ModelSpec, State
from .rng import mix64

__all__ = [
    "make_observable",
    "ErgodicEstimate",
    "time_average",
    "regular_samples",
    "states_at",
    "DensityEstimate",
    "invariant_histogram",
    "tv_histogram",
    "MixingCurve",
    "mixing_curve",
    "AutocorrelationFit",
    "autocorr_decay",
]

# time_average's number of non-overlapping batches
_BATCHES = 20
# mixing_curve's histograms hold bins**(1 + M) cells of 8 bytes each, two at
# a time, and each state block n_paths * n_times * (1 + M) entries; above this
# many cells or entries it refuses to run.
_MAX_CELLS = 10 ** 7


def make_observable(spec, model: ModelSpec | None = None):
    """Vectorised observable over skeleton samples.

    ``spec`` is one of the strings "one", "x", "x2", "rate" (the last needs
    the model to evaluate the rate functions), or a callable
    ``f(times, x, row_sums) -> values``.
    """
    if callable(spec):
        return spec
    if spec == "one":
        return lambda t, x, rs: np.ones_like(x)
    if spec == "x":
        return lambda t, x, rs: x
    if spec == "x2":
        return lambda t, x, rs: x * x

    if spec == "rate":
        if model is None:
            raise ValueError("observable 'rate' requires the model")
        rt = RateRuntime(model)
        return lambda t, x, rs: rt.rates_at(rs).sum(axis=-1)
    raise ValueError(f"unknown observable {spec!r}")


@dataclass(frozen=True)
class ErgodicEstimate:
    """Post-burn-in time average with a non-overlapping batch-means error bar."""

    value: float
    batch_count: int
    standard_error: float
    burn_in: float

    def to_dict(self) -> dict:
        return asdict(self)


def time_average(path: Path, observable, burn_in: float = 0.0,
                 model: ModelSpec | None = None) -> ErgodicEstimate:
    """Trapezoidal time average of the observable over the post-burn-in
    skeleton, with the standard error of the means of 20 non-overlapping
    batches of equal duration.

    Jump times carry two skeleton records (pre/post), so discontinuities
    integrate exactly as zero-width segments.  A constant observable is
    returned exactly, with zero standard error.
    """
    if burn_in >= path.horizon:
        raise ValueError("burn_in must be smaller than the path horizon")
    g = make_observable(observable, model)
    start = int(np.searchsorted(path.skeleton_times, burn_in, side="left"))
    ts = path.skeleton_times[start:]
    if len(ts) < 2 or ts[-1] - ts[0] <= 0:
        raise ValueError("too few skeleton samples after burn-in")
    vals = np.asarray(g(ts, path.skeleton_x[start:],
                        path.skeleton_row_sums[start:]), dtype=float)
    if np.all(vals == vals[0]):
        return ErgodicEstimate(float(vals[0]), _BATCHES, 0.0, burn_in)
    dt = np.diff(ts)
    seg = 0.5 * (vals[:-1] + vals[1:]) * dt
    total_time = float(ts[-1] - ts[0])
    value = float(seg.sum()) / total_time

    edge_times = ts[0] + np.arange(_BATCHES + 1) / _BATCHES * total_time
    idx = np.searchsorted(ts, edge_times)
    idx[0], idx[-1] = 0, len(ts) - 1
    idx = np.unique(idx)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    durations = ts[idx[1:]] - ts[idx[:-1]]
    keep = durations > 0
    means = (cum[idx[1:]] - cum[idx[:-1]])[keep] / durations[keep]
    n_batches = int(keep.sum())
    if n_batches < 2:
        raise ValueError("not enough batches for a standard error")
    se = float(means.std(ddof=1)) / math.sqrt(n_batches)
    return ErgodicEstimate(value, n_batches, se, burn_in)


def regular_samples(path: Path, grid_dt: float, burn_in: float = 0.0):
    """(times, x, row_sums) at the regular grid multiples of grid_dt past
    burn_in, taking the post-jump record when a grid time coincides with an
    event.  A grid step the engine would refuse (not finite and positive, or
    too fine) is refused the same way."""
    times = _grid_multiples(path.horizon, grid_dt)
    times = times[max(0, int(math.ceil((burn_in - _sample_eps(path.horizon)) / grid_dt))):]
    return (times, *states_at(path, times))


def states_at(path: Path, times) -> tuple[np.ndarray, np.ndarray]:
    """(x, row_sums) at the given times, which must be recorded in the
    skeleton (use simulate_path(..., sample_at=times)); post-jump values.
    Each time reads its nearest record, within twice the engine's tolerance
    eps: a sample time within eps of the one kept before it is dropped, and
    one within eps of an event reads the event's post-jump record."""
    times = np.asarray(times, dtype=float)
    st = path.skeleton_times
    idx = np.searchsorted(st, times, side="right") - 1   # the last record at or before each time
    off = np.flatnonzero(st[idx] != times)
    if len(off):   # no record at the time: the nearer of those around it
        t, below = times[off], np.maximum(idx[off], 0)
        above = np.searchsorted(st, st[np.minimum(idx[off] + 1, len(st) - 1)], side="right") - 1
        idx[off] = np.where(np.abs(st[above] - t) < np.abs(st[below] - t), above, below)
        if not np.all(np.abs(st[idx[off]] - t) <= 2 * _sample_eps(path.horizon)):
            raise ValueError("requested times are not recorded in the skeleton")
    return path.skeleton_x[idx], path.skeleton_row_sums[idx]


@dataclass(frozen=True)
class DensityEstimate:
    """Pooled histogram of the x marginal with a positivity summary on a compact."""

    bin_edges: np.ndarray
    bin_masses: np.ndarray
    positivity_compact: tuple[float, float]
    min_mass_on_compact: float

    def to_dict(self) -> dict:
        return {"bin_edges": self.bin_edges.tolist(),
                "bin_masses": self.bin_masses.tolist(),
                "positivity_compact": list(self.positivity_compact),
                "min_mass_on_compact": self.min_mass_on_compact}


def invariant_histogram(paths: list[Path], bins: int, compact: tuple[float, float],
                        grid_dt: float, burn_in: float = 0.0) -> DensityEstimate:
    """Pool post-burn-in regular x samples from an ensemble into a normalised
    histogram and report the smallest mass among bins meeting the compact."""
    if not paths:
        raise ValueError("empty ensemble")
    xs = np.concatenate([regular_samples(p, grid_dt, burn_in)[1] for p in paths])
    if xs.size == 0:
        raise ValueError("no samples after burn-in")
    counts, edges = np.histogram(xs, bins=bins)
    masses = counts / counts.sum()
    a, b = compact
    meets = (edges[1:] > a) & (edges[:-1] < b)
    if not meets.any():
        raise ValueError("no histogram bin intersects the compact")
    return DensityEstimate(edges, masses, (a, b), float(masses[meets].min()))


def tv_histogram(a: np.ndarray, b: np.ndarray, bins: int) -> float:
    """Total variation distance between two samples of equal dimension via
    shared-binning histograms (half l1 distance of bin masses)."""
    a, b = (np.asarray(v, dtype=float).reshape(len(v), -1) for v in (a, b))   # rows of samples
    pooled = np.vstack([a, b])
    edges = []
    for d in range(pooled.shape[1]):
        lo, hi = float(pooled[:, d].min()), float(pooled[:, d].max())
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        edges.append(np.linspace(lo, hi, bins + 1))
    ha = np.histogramdd(a, bins=edges)[0] / len(a)
    hb = np.histogramdd(b, bins=edges)[0] / len(b)
    return 0.5 * float(np.abs(ha - hb).sum())


def _log_linear_fit(t: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit log(values) ~ intercept - rate * t: (rate, intercept, R^2)."""
    logs = np.log(values)
    try:   # times whose squares underflow leave polyfit a zero scale to divide by
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            slope, intercept = np.polyfit(t, logs, 1)
    except FloatingPointError as exc:
        raise ValueError(f"the times {t.tolist()} are too small to fit a decay rate") from exc
    resid = logs - (intercept + slope * t)
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), float(intercept), r2


@dataclass(frozen=True)
class MixingCurve:
    """Two-start TV estimates against time with an exponential-decay fit."""

    times: np.ndarray
    tv_estimates: np.ndarray
    noise_floor: np.ndarray
    fitted_rate: float
    fit_log_intercept: float
    fit_r2: float
    fit_mask: np.ndarray

    def fitted_values(self) -> np.ndarray:
        return np.exp(self.fit_log_intercept - self.fitted_rate * self.times)

    def to_dict(self) -> dict:
        return {"times": self.times.tolist(),
                "tv_estimates": self.tv_estimates.tolist(),
                "noise_floor": self.noise_floor.tolist(),
                "fitted_rate": self.fitted_rate,
                "fit_r2": self.fit_r2,
                "fit_mask": self.fit_mask.astype(bool).tolist()}


def mixing_curve(model: ModelSpec, start_a: State, start_b: State, times,
                 n_paths: int, bins: int, cfg: IntegratorConfig,
                 master_seed: int = 0) -> MixingCurve:
    """Estimate TV(law_a(t), law_b(t)) over the given times from two path
    ensembles (one per start), on shared joint histograms of
    (x, row sums of y).

    One ensemble per start is simulated to the largest requested time and
    read at every time, so estimates share paths across times.  The fit
    log TV ~ intercept - rate * t uses only times where the TV estimate
    exceeds twice its own split-half noise floor.
    """
    times = np.sort(np.asarray(times, dtype=float))
    if len(times) < 2 or not (times[0] >= 0 and np.all(np.diff(times) > 0)):
        raise ValueError("times must be >= 0 and strictly increasing with at least 2 entries")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    cells = bins ** (1 + model.n_components)
    if cells > _MAX_CELLS:
        raise ValueError(f"{bins} bins over {1 + model.n_components} dimensions give "
                         f"{cells:.3g} histogram cells, more than {_MAX_CELLS}")
    entries = n_paths * len(times) * (1 + model.n_components)
    if entries > _MAX_CELLS:
        raise ValueError(f"{n_paths} paths at {len(times)} times give {entries:.3g} state "
                         f"block entries, more than {_MAX_CELLS}")
    horizon = float(times[-1])

    ensembles = []
    for tag, start in ((1, start_a), (2, start_b)):
        variant = ModelSpec(model.rates, model.kernel, model.coefficients, start)
        paths = simulate_ensemble(variant, horizon, cfg, mix64(master_seed + tag),
                                  n_paths, sample_at=times)
        # stacked (n_paths, n_times, 1 + M) state summaries
        ensembles.append(np.array([np.column_stack(states_at(p, times)) for p in paths]))
    block_a, block_b = ensembles

    tv = np.empty(len(times))
    floor = np.empty(len(times))
    half = n_paths // 2
    for k in range(len(times)):
        a, b = block_a[:, k, :], block_b[:, k, :]
        tv[k] = tv_histogram(a, b, bins)
        floor[k] = 0.5 * (tv_histogram(a[:half], a[half:], bins)
                          + tv_histogram(b[:half], b[half:], bins))

    mask = tv > 2.0 * floor
    if mask.sum() < 2:
        raise ValueError("TV estimates sit below the noise floor at all but "
                         "one time; shorten the times or add paths")
    rate, intercept, r2 = _log_linear_fit(times[mask], tv[mask])
    return MixingCurve(times, tv, floor, rate, intercept, r2, mask)


@dataclass(frozen=True)
class AutocorrelationFit:
    """Sample autocorrelations at time lags with an exponential decay fit."""

    lags: np.ndarray
    correlations: np.ndarray
    rate: float
    r_squared: float


def autocorr_decay(path: Path, observable, lags, grid_dt: float,
                   burn_in: float = 0.0, model: ModelSpec | None = None) -> AutocorrelationFit:
    """Sample autocorrelation of the observable over the regular grid at the
    given time lags, with a least-squares exponential fit over the lags
    whose correlation exceeds 0.05."""
    times, x, rs = regular_samples(path, grid_dt, burn_in)
    g = make_observable(observable, model)
    series = np.asarray(g(times, x, rs), dtype=float)
    lags = np.asarray(lags, dtype=float)
    steps = np.unique(np.maximum(1, np.round(lags / grid_dt).astype(int)))
    if steps[-1] >= len(series) // 2:
        raise ValueError("series too short for the requested lags")
    centred = series - series.mean()
    denom = float((centred ** 2).sum())
    corr = np.array([float((centred[:-k] * centred[k:]).sum()) / denom for k in steps])
    lag_times = steps * grid_dt
    use = corr > 0.05
    if use.sum() < 2:
        # nothing decays above the floor: an (effectively) uncorrelated series
        return AutocorrelationFit(lag_times, corr, math.nan, 0.0)
    rate, _, r2 = _log_linear_fit(lag_times[use], corr[use])
    return AutocorrelationFit(lag_times, corr, rate, r2)
