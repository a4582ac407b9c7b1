"""Model builders shared across the test modules."""

import json
import math
from bisect import bisect_right

import numpy as np
from hypothesis import strategies as st

import hjsim
from hjsim import engine, pathio
from hjsim.diffusion import _em_split, _noiseless
from hjsim.intensity import RateRuntime
from hjsim.model import model_digest
from hjsim.rng import RandomStream, _key


def philox_generator(seed: int) -> np.random.Generator:
    """numpy's own Philox generator of the stream keyed by a 64-bit seed:
    the oracle that every draw of :mod:`hjsim.rng` is checked against."""
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed), dtype=np.uint64)))


def make_model(m, rates, c, alpha, drift, diffusion, jump, x0=0.0, y0=None):
    return hjsim.model_from_dict({
        "M": m,
        "rates": rates,
        "kernel": {"c": c, "alpha": alpha},
        "coefficients": {"drift": drift, "diffusion": diffusion, "jump": jump},
        "initial": {"x": x0, "y": y0 if y0 is not None else [0.0] * (m * m)},
    })


def reference_model(x0=0.0, y0=0.0, c=0.5, floor=0.1):
    """Subcritical single-component model in the exponential frame:
    f(u) = max(floor, 1 + u), decay 1, event amplitude c, drift -x,
    unit noise, events halve x."""
    return make_model(
        1,
        [{"type": "affine_clipped", "floor": floor, "intercept": 1.0, "slope": 1.0}],
        [c], [1.0],
        {"type": "linear", "rate": 1.0, "intercept": 0.0},
        {"type": "constant", "value": 1.0},
        {"type": "linear_damping", "eta": 0.5},
        x0=x0, y0=[y0],
    )


def poisson_model(levels=(1.0, 2.0)):
    """Degenerate case: constant rates, zero amplitudes, jumps do nothing."""
    m = len(levels)
    return make_model(
        m,
        [{"type": "constant", "level": float(v)} for v in levels],
        [0.0] * (m * m), [1.0] * (m * m),
        {"type": "linear", "rate": 1.0, "intercept": 0.0},
        {"type": "constant", "value": 1.0},
        {"type": "constant", "size": 0.0},
    )


def constant_rate_config(m):
    """The JSON config of an M = m model with constant rates and zero
    amplitudes; it builds for any m up to the cap on M."""
    return {"M": m, "rates": [{"type": "constant", "level": 1.0}] * m,
            "kernel": {"c": [0.0] * (m * m), "alpha": [1.0] * (m * m)},
            "coefficients": {"drift": {"type": "linear", "rate": 1.0},
                             "diffusion": {"type": "constant", "value": 1.0},
                             "jump": {"type": "constant", "size": 0.0}},
            "initial": {"x": 0.0, "y": [0.0] * (m * m)}}


def pure_ou_model(rate_level=1e-4, x0=0.0):
    """Events are present but invisible: zero amplitudes, zero displacement."""
    return make_model(
        1,
        [{"type": "constant", "level": rate_level}],
        [0.0], [1.0],
        {"type": "linear", "rate": 1.0, "intercept": 0.0},
        {"type": "constant", "value": 1.0},
        {"type": "constant", "size": 0.0},
        x0=x0,
    )


def two_component_model():
    """Excitatory pair with interaction matrix [[.3,.2],[.1,.4]] (radius 0.5)."""
    return make_model(
        2,
        [{"type": "affine_clipped", "floor": 1e-6, "intercept": 0.5, "slope": 1.0}] * 2,
        [0.3, 0.2, 0.1, 0.4], [1.0] * 4,
        {"type": "linear", "rate": 1.0, "intercept": 0.0},
        {"type": "constant", "value": 1.0},
        {"type": "linear_damping", "eta": 0.5},
    )


def supercritical_model():
    """Amplitude over decay equals 2 with unit Lipschitz slope: radius 2."""
    return make_model(
        1,
        [{"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0}],
        [2.0], [1.0],
        {"type": "linear", "rate": 1.0, "intercept": 0.0},
        {"type": "constant", "value": 1.0},
        {"type": "linear_damping", "eta": 0.5},
    )


def polynomial_model():
    """Bounded smooth drift puts this model in the polynomial frame."""
    return make_model(
        1,
        [{"type": "sigmoid", "height": 2.0, "steepness": 1.0, "center": 0.0}],
        [0.5], [1.0],
        {"type": "bounded_smooth", "amplitude": 2.0, "steepness": 1.0},
        {"type": "constant", "value": 1.0},
        {"type": "linear_damping", "eta": 0.5},
    )


def em_cfg(grid_dt=0.01, step=None):
    return hjsim.IntegratorConfig(hjsim.EulerMaruyama(step or grid_dt), grid_dt)


def ou_cfg(grid_dt=0.01):
    return hjsim.IntegratorConfig(hjsim.ExactOU(), grid_dt)


def random_state(rng, m, x_range=(-1.5, 1.5), y_mag=(0.3, 1.5)):
    """Admissible state for generator checks: no zero memory entries."""
    x = rng.uniform(*x_range)
    signs = rng.choice([-1.0, 1.0], size=(m, m))
    y = signs * rng.uniform(y_mag[0], y_mag[1], size=(m, m))
    return hjsim.State(x, y)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_RATE_SPECS = st.one_of(
    st.builds(lambda floor, intercept, slope: {"type": "affine_clipped", "floor": floor,
                                               "intercept": intercept, "slope": slope},
              _finite(0.05, 1.0), _finite(-1.0, 2.0), _finite(-1.0, 1.0)),
    st.builds(lambda height, steepness, center: {"type": "sigmoid", "height": height,
                                                 "steepness": steepness, "center": center},
              _finite(0.2, 3.0), _finite(0.2, 2.0), _finite(-2.0, 2.0)))


_LINEAR_DRIFT_SPECS = st.builds(
    lambda rate, intercept: {"type": "linear", "rate": rate, "intercept": intercept},
    st.one_of(st.just(0.0), _finite(-0.5, 2.0)), _finite(-1.0, 1.0))

_DRIFT_SPECS = st.one_of(
    _LINEAR_DRIFT_SPECS,
    st.builds(lambda amplitude, steepness: {"type": "bounded_smooth", "amplitude": amplitude,
                                            "steepness": steepness},
              _finite(0.1, 3.0), _finite(0.2, 3.0)))

_CONSTANT_NOISE_SPECS = st.builds(lambda value: {"type": "constant", "value": value},
                                  st.one_of(st.just(0.0), _finite(0.1, 1.5)))

_DIFFUSION_SPECS = st.one_of(
    _CONSTANT_NOISE_SPECS,
    st.builds(lambda lo, extra: {"type": "smooth_bounded", "lo": lo, "hi": lo + extra},
              _finite(0.1, 1.0), _finite(0.0, 1.0)))

_JUMP_SPECS = st.one_of(
    st.builds(lambda size: {"type": "constant", "size": size}, _finite(-1.0, 1.0)),
    st.builds(lambda eta: {"type": "linear_damping", "eta": eta}, _finite(0.0, 2.0)),
    st.builds(lambda coeff, exponent: {"type": "power_bounded", "coeff": coeff,
                                       "exponent": exponent},
              _finite(-1.5, 1.5), _finite(-1.0, 0.95)))


@st.composite
def simulation_runs(draw, exact_ou=False):
    """A random M <= 3 model (clipped rates with signed slope or sigmoid
    rates, signed amplitudes, nonzero start, every kind of drift, noise and
    jump map, zero rate and zero noise included) with a horizon, an
    integrator config (exact-OU only where it is admissible, and always
    with ``exact_ou``), optional extra sample times and a seed."""
    m = draw(st.integers(1, 3))

    def entries(lo, hi):
        return draw(st.lists(_finite(lo, hi), min_size=m * m, max_size=m * m))

    if exact_ou:
        drift, noise = draw(_LINEAR_DRIFT_SPECS), draw(_CONSTANT_NOISE_SPECS)
    else:
        drift, noise = draw(_DRIFT_SPECS), draw(_DIFFUSION_SPECS)
    ou_admissible = drift["type"] == "linear" and noise["type"] == "constant"
    em = not exact_ou and (not ou_admissible or draw(st.booleans()))
    model = make_model(m, draw(st.lists(_RATE_SPECS, min_size=m, max_size=m)),
                       entries(-0.6, 0.6), entries(0.5, 3.0), drift, noise, draw(_JUMP_SPECS),
                       x0=draw(_finite(-2.0, 2.0)), y0=entries(-1.0, 1.0))
    horizon = draw(_finite(0.5, 4.0))
    grid_dt = horizon / draw(_finite(0.5, 60.0))
    cfg = em_cfg(grid_dt, grid_dt / draw(_finite(0.7, 4.0))) if em else ou_cfg(grid_dt)
    extra = draw(st.one_of(st.none(), st.lists(_finite(-1.0, 5.0), max_size=4)))
    return model, horizon, cfg, extra, draw(st.integers(0, 2**63))


@st.composite
def em_runs(draw):
    """:func:`simulation_runs` with an Euler-Maruyama step that divides the
    grid step a whole number of times, or does not."""
    model, horizon, cfg, extra, seed = draw(simulation_runs())
    divisor = draw(st.integers(1, 8).map(float) | _finite(0.3, 8.0))
    return model, horizon, em_cfg(cfg.grid_dt, cfg.grid_dt / divisor), extra, seed


def serial_oracle(model, cfg, horizon, sample_at, seed):
    """One path's thinning as the lockstep loop's array code runs it on a
    single row: each event's record row (path 0, time, component, next
    sample index, offset of the segment's normals, pre-jump row sums,
    post-jump memory) and every segment's normals, in draw order.
    ``engine._run_events`` must give the same bytes."""
    rt, rng, m = RateRuntime(model), RandomStream(seed), model.n_components
    log = engine._GroupLog(model, cfg, horizon,
                           engine._build_sample_times(horizon, cfg.grid_dt, sample_at), 1)
    samples, eps = log.samples, log.eps
    c_added = np.full((m, m, m), -0.0)
    for j in range(m):
        c_added[j, :, j] = model.kernel.c[:, j]
    rows, normals = [], []
    t, t0, lo, y = 0.0, 0.0, 0, model.initial.y.copy()

    def take(t_stop):
        hi = int(np.maximum(np.searchsorted(samples, t_stop - eps), lo))
        n = count_oracle(samples, model.coefficients, cfg, t0, lo, hi, t_stop)
        z0 = sum(len(v) for v in normals)
        if n:
            normals.append(rng.normals(n))
        return hi, z0

    while True:
        bound = rt.f_zero_sum + float(rt.gammas @ np.abs(y).sum(axis=1))
        tau = t + -np.log(rng.uniform()) / bound
        if tau > horizon:
            take(horizon)
            return (np.concatenate([np.empty((0, 5 + m + m * m))] + rows),
                    np.concatenate([np.empty(0)] + normals))
        y = y * np.exp(-rt.alpha * (tau - t))
        cum = np.cumsum(rt.intensities(y))
        u = rng.uniform() * bound
        t = tau
        if u >= cum[-1]:
            continue   # rejected
        comp = int(np.searchsorted(cum, u, side="right")) + 1
        lo, z0 = take(tau)
        near = np.abs(samples[lo] - tau) <= eps
        while near.any():   # step past the sample times on tau
            lo = lo + near
            near = np.abs(samples[lo] - tau) <= eps
        y = y.reshape(-1, m, m)
        row = np.empty((1, 5 + m + m * m))
        row[:, 0], row[:, 1], row[:, 2], row[:, 3], row[:, 4] = 0, tau, comp, lo, z0
        y.sum(axis=2, out=row[:, 5:5 + m])
        y += c_added[comp - 1]
        row[:, 5 + m:] = y.reshape(1, -1)
        rows.append(row)
        y, t0, lo = y[0], tau, int(lo)


def take(log, t0, lo, t_stop, rng):
    """Take the normals of one path's segment from its anchor time t0 and
    next sample index lo up to ``t_stop`` from rng into ``log``, after the
    segment's last thinning draw, as ``engine._run_events`` takes them:
    returns the end of the segment's sample times and the block's offset."""
    hi, z0 = int(log._hi(lo, t_stop)), len(log.z)
    log.z.frombytes(rng.uniforms(log._count(t0, lo, hi, t_stop)).tobytes())
    return hi, z0


def reference_oracle(model, horizon, cfg, seed, *, sample_at=None,
                     max_candidates=engine.DEFAULT_MAX_EVENTS):
    """The reference construction as one path's own candidate loop: the
    serial form that ``hjsim.simulate_path_reference`` replaced with a bound
    policy of the lockstep loop, and must equal byte for byte."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    horizon = float(horizon)
    cfg.validate_for(model.coefficients)
    rng = RandomStream(seed)
    rt = RateRuntime(model)
    log = engine._GroupLog(model, cfg, horizon,
                           engine._build_sample_times(horizon, cfg.grid_dt, sample_at), 1)
    y, t_event = model.initial.y.ravel().tolist(), 0.0   # the last event's memory and time
    lo = 0   # the path's next sample index
    lam_star = rt.bound(y)
    step = engine.reference_rate_step(model)
    t_cand, n_cand = 0.0, 0
    while True:
        tau = t_cand - float(np.log(rng.uniform())) / lam_star
        if tau > horizon:
            log.z_end[0] = take(log, t_event, lo, horizon, rng)[1]
            break
        n_cand += 1
        if n_cand > max_candidates:
            raise hjsim.SimulationLimitError(
                f"exceeded {max_candidates} dominating events before t = {tau:.6g}")
        y_pre, rs, cum = rt.flow(y, tau - t_event)
        if cum[-1] > lam_star * (1.0 + 1e-9):
            raise RuntimeError("dominating rate violated in reference construction")
        u = rng.uniform() * lam_star
        comp = 0 if u >= cum[-1] else bisect_right(cum, u) + 1
        if comp:
            y_rec = np.reshape(y_pre, (1, *model.kernel.c.shape))
            log.record_rows(np.zeros(1, np.intp), tau, comp, *take(log, t_event, lo, tau, rng),
                            y_rec)
            y, t_event, lo = y_rec.ravel().tolist(), tau, int(log.lo[0])
        lam_star += step
        t_cand = tau
    return engine._skeleton(log, [seed], model_digest(model))[0][0]


def count_oracle(samples, coeffs, cfg, t0, lo, hi, t_stop) -> int:
    """The normals of the segment from t0 to t_stop through samples[lo:hi],
    counted interval by interval (one per exact-OU interval, one per
    Euler-Maruyama substep, none without noise): the form
    ``engine._GroupLog._count`` replaced with a running sum over the sample
    grid."""
    if _noiseless(coeffs):
        return 0
    ts = [t0, *samples[lo:hi].tolist(), t_stop]
    dts = [b - a for a, b in zip(ts, ts[1:]) if b > a]
    if isinstance(cfg.scheme, hjsim.ExactOU):
        return len(dts)
    return sum(_em_split(dt, cfg.scheme.step)[0] for dt in dts)


def em_segment_oracle(x, dts, coeffs, cfg, z) -> list:
    """Euler-Maruyama positions after each interval of ``dts``, one call of
    each coefficient object per substep, taking the next normal from the
    iterator ``z`` at each noisy step: the loop the compiled scalar kernel
    (``diffusion._em_kernel``) replaced."""
    noiseless = _noiseless(coeffs)
    drift, sigma, h = coeffs.drift, coeffs.diffusion, cfg.scheme.step
    sqrt_h = math.sqrt(h)
    out = []
    for dt in dts:
        n, rem = _em_split(dt, h)
        s, sqrt_s, full = h, sqrt_h, n - (rem > 0)
        for i in range(n):
            if i == full:   # the partial step
                s, sqrt_s = rem, math.sqrt(rem)
            if noiseless:
                x = x + float(drift(x)) * s
            else:
                x = x + float(drift(x)) * s + float(sigma(x)) * sqrt_s * next(z)
        out.append(x)
    return out


def advance_many_oracle(xs, dt, coeffs, cfg, rng):
    """Euler-Maruyama positions of the array ``xs`` after dt, one array step
    per substep with one call of each coefficient object, drawing a normal
    for every position at each noisy substep: the loop that
    ``diffusion.advance_diffusion_many`` replaced with the compiled kernel."""
    xs = np.array(xs, dtype=float, copy=True)
    n_sub, rem = _em_split(dt, cfg.scheme.step)
    for s in (cfg.scheme.step,) * (n_sub - (rem > 0)) + (rem,) * (rem > 0):
        b = coeffs.drift(xs)
        if _noiseless(coeffs):
            xs = xs + b * s
        else:
            xs = xs + b * s + coeffs.diffusion(xs) * math.sqrt(s) * rng.normals(len(xs))
    return xs


def ou_step_oracle(x, dt, coeffs, z) -> float:
    """x after the exact transition over dt, with ``math.exp``'s decay, in the
    engine's order q + (x - p) * d + e, taking the next normal from the
    iterator ``z`` unless the model is noiseless: the scalar form of
    ``diffusion._ou_terms`` and of the engine's walk."""
    beta, b0, sigma = coeffs.drift.rate, coeffs.drift.intercept, coeffs.diffusion.value
    level = b0 / beta if beta else math.inf
    if math.isinf(level):   # a zero rate, or one so small that it acts as one
        p, q, d, var = 0.0, b0 * dt, 1.0, sigma * sigma * dt
    else:
        p = q = level
        d = math.exp(-beta * dt)
        var = sigma * sigma * dt if d == 1.0 else sigma * sigma * (1.0 - d * d) / (2.0 * beta)
    x = q + (x - p) * d
    return x if _noiseless(coeffs) else x + math.sqrt(var) * next(z)


def skeleton_x_oracle(path, model, cfg, normals):
    """x at every skeleton record of a one-path run, stepped record to
    record from the path's start with :func:`ou_step_oracle` or
    :func:`em_segment_oracle` (or the jump map, at a repeated time) from the
    path's normals in order.  Returns the x values and the normals left,
    which are those of a last interval closer to the horizon than eps,
    whose record is not kept."""
    coeffs, z = model.coefficients, iter(normals.tolist())
    ou = isinstance(cfg.scheme, hjsim.ExactOU)
    times, xs = path.skeleton_times.tolist(), [model.initial.x]
    for a, b in zip(times, times[1:]):
        x = xs[-1]
        if b == a:
            xs.append(x + float(coeffs.jump(x)))
        elif ou:
            xs.append(ou_step_oracle(x, b - a, coeffs, z))
        else:
            xs.append(em_segment_oracle(x, [b - a], coeffs, cfg, z)[0])
    return np.array(xs), len(list(z))


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def jsonl_oracle(path) -> bytes:
    """A path's JSONL text written one ``json.JSONEncoder`` call per record,
    merging samples and events by walking both time lists: the reference
    that ``pathio.dumps_jsonl`` must equal byte for byte."""
    st, sx, rs = path.skeleton_times.tolist(), path.skeleton_x.tolist(), path.skeleton_row_sums
    et, ec = path.event_times.tolist(), path.event_components.tolist()
    lines = [{"kind": "header", "format": "hjsm-jsonl", "version": 1, "M": path.n_components,
              "horizon": path.horizon, "seed": path.seed, "model_digest": path.model_hash}]

    def sample(i):
        lines.append({"kind": "sample", "t": st[i], "x": sx[i], "row_sums": rs[i].tolist()})

    i = 0
    for j in range(len(et)):
        while i < len(st) and st[i] < et[j]:
            sample(i)
            i += 1
        if i < len(st) and st[i] == et[j]:
            sample(i)   # the pre-jump value
            i += 1
        lines.append({"kind": "event", "t": et[j], "component": ec[j]})
    for i in range(i, len(st)):
        sample(i)
    return "".join(_ENCODER.encode(rec) + "\n" for rec in lines).encode()


def _boundary_floats() -> list:
    """Doubles at the edges of the JSONL writer's array formatter: every power
    of two and of ten in [1e-5, 1e16] and its neighbours one ulp away (the
    fast range's ends 1e-4 and 1e15 among them), 9.999999999999999e+k for k
    in -4..15, a tie at one removed digit and the extreme doubles."""
    exact = [2.0 ** q for q in range(-16, 54)] + [float(f"1e{k}") for k in range(-5, 17)]
    return sorted(set(exact + [math.nextafter(v, to) for v in exact for to in (0.0, math.inf)]
                      + [float(f"9.999999999999999e{k}") for k in range(-4, 16)]
                      + [767631912949945.75, 5e-324, 1.7976931348623157e308]))


BOUNDARY_FLOATS = _boundary_floats()


def formatted(values) -> list:
    """The text that the JSONL writer's array formatter gives each float."""
    v = np.asarray(values, dtype=float)
    slots = np.zeros((len(v), 40), np.uint8)
    pathio._format_floats(v, slots)
    return [row.tobytes().replace(b"\0", b"").decode() for row in slots]


@st.composite
def written_paths(draw):
    """Paths for the jsonl writer: M = 1..6, up to 700 samples (several
    writer blocks) with repeated times, events on and between sample times
    (or none), and NaN, +-inf, -0.0 and +-BOUNDARY_FLOATS among x and the
    row sums."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 20) | st.integers(250, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # sample times from 0, or from 0.25 so that an event may come before all
    times = np.sort(rng.integers(0, n // 2 + 2, n) * 0.25 + draw(st.sampled_from([0.0, 0.25])))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    rs = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-20, 20, (n, m))
    specials = st.sampled_from([np.nan, np.inf, -np.inf, -0.0]) | st.sampled_from(
        BOUNDARY_FLOATS + [-v for v in BOUNDARY_FLOATS])
    for row, col, v in draw(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, m),
                                               specials), max_size=12)):
        if n:
            (x if col == 0 else rs[:, col - 1])[row % n] = v
    # candidate event times in (0, horizon]: on a sample time, between two,
    # before all (when they start at 0.25) and after all
    on_or_off = np.unique(np.concatenate([times, times + 0.125, [0.0625, n + 1.0]]))
    on_or_off = on_or_off[on_or_off > 0.0]
    k = draw(st.integers(0, min(len(on_or_off), 60)))
    events = np.sort(rng.choice(on_or_off, k, replace=False))
    return hjsim.Path(event_times=events, event_components=rng.integers(1, m + 1, k),
                      skeleton_times=times, skeleton_x=x, skeleton_row_sums=rs.reshape(n, m),
                      horizon=float(n + 1), seed=int(rng.integers(0, 2 ** 63)),
                      model_hash="ab" * 32)
