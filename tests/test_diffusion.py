import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import hjsim
from hjsim.diffusion import (EulerMaruyama, ExactOU, IntegratorConfig, _check_substeps,
                             _em_kernel, _em_plan, _em_split, _exp_each, _noiseless,
                             advance_diffusion_many)
from hjsim.model import (CoefficientSpec, ConstantDiffusion, ConstantJump,
                         BoundedSmoothDrift, LinearDampingJump, LinearDrift,
                         SmoothBoundedDiffusion)
from hjsim.rng import RandomStream

from helpers import (_DIFFUSION_SPECS, _DRIFT_SPECS, _finite, advance_many_oracle, count_oracle,
                     em_segment_oracle, make_model)


def coeffs(rate=1.0, intercept=0.0, sigma=1.0, jump=None):
    return CoefficientSpec(LinearDrift(rate, intercept), ConstantDiffusion(sigma),
                           jump or ConstantJump(0.0))


def advance(x, dt, cs, cfg, rng):
    """One position advanced over dt."""
    return float(advance_diffusion_many(np.array([x]), dt, cs, cfg, rng)[0])


class TestDeterministicLimits:
    def test_exact_decay_without_noise(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        x = advance(1.0, 1.0, coeffs(sigma=0.0), cfg, RandomStream(0))
        assert x == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_pure_drift(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        x = advance(0.0, 2.5, coeffs(rate=0.0, intercept=1.0, sigma=0.0), cfg, RandomStream(0))
        assert x == pytest.approx(2.5, rel=1e-12)

    def test_euler_first_order_convergence_deterministic(self):
        errors = []
        hs = [1e-1, 1e-2, 1e-3]
        for h in hs:
            cfg = IntegratorConfig(EulerMaruyama(h), 0.1)
            x = advance(1.0, 1.0, coeffs(sigma=0.0), cfg, RandomStream(0))
            errors.append(abs(x - math.exp(-1.0)))
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("rate", [2.225073858507e-311, -1e-310])
    def test_rate_too_small_for_the_mean_level(self, rate):
        # intercept / rate overflows: the transition is the zero-rate one
        cfg = IntegratorConfig(ExactOU(), 0.1)
        cs = coeffs(rate=rate, intercept=1.0, sigma=0.0)
        assert advance(0.5, 2.0, cs, cfg, RandomStream(0)) == 2.5
        noisy = coeffs(rate=rate, intercept=1.0, sigma=1.0)
        z = float(RandomStream(0).normals(1)[0])
        assert advance(0.5, 2.0, noisy, cfg, RandomStream(0)) == 2.5 + math.sqrt(2.0) * z

    @pytest.mark.parametrize("rate", [1e-20, 1e-300, -1e-20])
    def test_noise_survives_a_decay_that_rounds_to_one(self, rate):
        # exp(-rate * dt) rounds to 1, so 1 - decay^2 is 0; the variance is
        # still sigma^2 * dt to first order in rate * dt
        cfg = IntegratorConfig(ExactOU(), 0.1)
        cs = coeffs(rate=rate, sigma=2.0)
        for k, dt in enumerate((0.01, 0.5, 3.0)):
            xs = advance_diffusion_many(np.zeros(100_000), dt, cs, cfg, RandomStream(40 + k))
            assert xs.var() == pytest.approx(4.0 * dt, rel=0.03)

    def test_zero_noise_consumes_no_draws(self):
        cfg = IntegratorConfig(EulerMaruyama(0.01), 0.1)
        rng = RandomStream(77)
        advance(1.0, 1.0, coeffs(sigma=0.0), cfg, rng)
        assert rng.uniform() == RandomStream(77).uniform()


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build, message", [
    (EulerMaruyama, "step must be a finite positive number"),
    (lambda v: IntegratorConfig(ExactOU(), v), "grid_dt must be a finite positive number"),
])
def test_refusals(build, message, value):
    with pytest.raises(ValueError) as info:
        build(value)
    assert type(info.value) is ValueError and str(info.value) == message


class TestExactTransition:
    def test_chained_law_matches_single_step(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        cs = coeffs(rate=0.7, intercept=0.3, sigma=0.9)
        n = 100_000
        rng = RandomStream(11)
        one = advance_diffusion_many(np.full(n, 1.5), 0.9, cs, cfg, rng)
        rng2 = RandomStream(12)
        two = advance_diffusion_many(
            advance_diffusion_many(np.full(n, 1.5), 0.4, cs, cfg, rng2),
            0.5, cs, cfg, rng2)
        assert stats.ks_2samp(one, two).pvalue > 0.01

    def test_zero_rate_moments(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        cs = coeffs(rate=0.0, intercept=0.5, sigma=2.0)
        xs = advance_diffusion_many(np.zeros(200_000), 2.0, cs, cfg, RandomStream(3))
        assert xs.mean() == pytest.approx(1.0, abs=0.03)
        assert xs.var() == pytest.approx(8.0, rel=0.02)

    def test_rejects_nonlinear_drift(self):
        model = make_model(1, [{"type": "constant", "level": 1.0}], [0.0], [1.0],
                           {"type": "bounded_smooth", "amplitude": 1.0},
                           {"type": "constant", "value": 1.0}, {"type": "constant", "size": 0.0})
        with pytest.raises(ValueError, match="linear drift"):
            hjsim.simulate_path(model, 1.0, IntegratorConfig(ExactOU(), 0.1), seed=0)

    def test_rejects_state_dependent_noise(self):
        cs = CoefficientSpec(LinearDrift(1.0, 0.0), SmoothBoundedDiffusion(0.5, 1.5),
                             ConstantJump(0.0))
        with pytest.raises(ValueError, match="constant diffusion coefficient"):
            IntegratorConfig(ExactOU(), 0.1).validate_for(cs)

    def test_rejects_nonpositive_dt(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        with pytest.raises(ValueError):
            advance(0.0, 0.0, coeffs(), cfg, RandomStream(0))


class TestWeakError:
    def test_mean_and_variance_errors_decay_linearly(self):
        # exact moments after dt = 1 from x0 = 1: mean e^{-1}, var (1 - e^{-2})/2
        exact_mean = math.exp(-1.0)
        exact_var = (1.0 - math.exp(-2.0)) / 2.0
        n = 100_000
        hs = [0.2, 0.1, 0.05]
        mean_err, var_err = [], []
        for k, h in enumerate(hs):
            cfg = IntegratorConfig(EulerMaruyama(h), 0.1)
            xs = advance_diffusion_many(np.ones(n), 1.0, coeffs(), cfg,
                                        RandomStream(100 + k))
            mean_err.append(abs(xs.mean() - exact_mean))
            var_err.append(abs(xs.var() - exact_var))
        for errs in (mean_err, var_err):
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert 0.75 <= slope <= 1.25

    def test_partial_substep_lands_exactly(self):
        # dt = 0.25 with step 0.1 runs substeps 0.1, 0.1, 0.05 (deterministic check)
        cfg = IntegratorConfig(EulerMaruyama(0.1), 0.1)
        x = advance(1.0, 0.25, coeffs(sigma=0.0), cfg, RandomStream(0))
        expected = 1.0
        for s in (0.1, 0.1, 0.05):
            expected = expected - expected * s
        assert x == pytest.approx(expected, rel=1e-14)


class TestSegment:
    @pytest.mark.parametrize("scheme,cs", [
        (ExactOU(), coeffs()),
        (ExactOU(), coeffs(rate=0.0, intercept=0.5)),
        (ExactOU(), coeffs(sigma=0.0)),
        (EulerMaruyama(0.07), coeffs()),
        (EulerMaruyama(0.07), coeffs(sigma=0.0)),
        (EulerMaruyama(0.07), CoefficientSpec(BoundedSmoothDrift(2.0),
                                              SmoothBoundedDiffusion(0.5, 1.5), ConstantJump(0.0))),
    ])
    def test_block_equals_chained_intervals(self, scheme, cs):
        # the engine steps an event-free path as one segment, from one block
        # of normals; against one advance per interval, each drawing its own
        cfg = IntegratorConfig(scheme, 1e3)
        times = np.cumsum([0.3, 0.07, 1e-3, 0.25, 0.14, 2.0, 0.07 * 3])
        model = make_model(1, [{"type": "constant", "level": 1e-300}], [0.0], [1.0],
                           **cs.to_dict(), x0=0.4)
        path = hjsim.simulate_path(model, float(times[-1]), cfg, seed=5, sample_at=times)
        assert path.n_events == 0 and path.skeleton_times[1:].tolist() == times.tolist()
        rng = RandomStream(5)
        rng.uniform()   # the one candidate, beyond the horizon
        x, chained = 0.4, [0.4]
        for dt in np.diff(path.skeleton_times).tolist():
            x = advance(x, dt, cs, cfg, rng)
            chained.append(x)
        assert path.skeleton_x.tolist() == chained


_COEFFS = [coeffs(), coeffs(sigma=0.0), coeffs(rate=0.0, intercept=0.5),
           CoefficientSpec(BoundedSmoothDrift(2.0), SmoothBoundedDiffusion(0.5, 1.5),
                           ConstantJump(0.0))]


@st.composite
def _segments(draw):
    """A scheme, coefficients and a list of intervals; Euler-Maruyama steps
    lie above and below the intervals, and some intervals are whole or
    nearly whole multiples of the step."""
    cs = draw(st.sampled_from(_COEFFS))
    exact = isinstance(cs.drift, LinearDrift) and draw(st.booleans())
    step = draw(st.floats(1e-2, 4.0))
    interval = st.floats(1e-12, 3.0) | st.builds(
        lambda k, r: k * step * r, st.integers(1, 30), st.sampled_from([1.0, 1 - 1e-13, 1 + 1e-13]))
    dts = draw(st.lists(interval, min_size=1, max_size=8))
    scheme = ExactOU() if exact else EulerMaruyama(step)
    return cs, IntegratorConfig(scheme, 0.1), dts


@settings(max_examples=300, deadline=None)
@given(_segments(), st.integers(0, 2**64 - 1))
def test_normals_count_is_what_the_stepper_draws(segment, seed):
    # the interval-by-interval count that the engine's ``_GroupLog._count``
    # equals, against the draws of the array stepper over the same intervals
    cs, cfg, dts = segment
    times = np.cumsum(dts)
    rng, x = RandomStream(seed), 0.4
    for dt in np.diff(times, prepend=0.0).tolist():
        if dt > 0:
            x = advance(x, dt, cs, cfg, rng)
    n = count_oracle(times, cs, cfg, 0.0, 0, len(times) - 1, float(times[-1]))
    assert rng.uniform() == RandomStream(seed).uniforms(n + 1)[n]


def _em_step_list(dt, h):
    """The substep lengths over dt as a list: the form _em_split replaced,
    kept as its oracle."""
    n_full = int(dt / h + 1e-12)
    rem = dt - n_full * h
    return [h] * n_full + ([rem] if rem >= 1e-12 * max(h, dt) else [])


@st.composite
def _step_and_interval(draw):
    """A step h and an interval dt: any, a whole multiple of h give or take
    1e-13 relative, shorter than h, or a multiple of h plus a remainder
    below the 1e-12 relative threshold."""
    h = draw(st.floats(1e-4, 10.0))
    k = draw(st.integers(1, 10 ** 4))
    dt = draw(st.one_of(
        st.floats(1e-12, 1e3),
        st.builds(lambda r: k * h * (1 + r), st.floats(-1e-13, 1e-13)),
        st.builds(lambda f: h * f, st.floats(1e-6, 1.0, exclude_max=True)),
        st.builds(lambda f: k * h + f * 1e-12 * k * h, st.floats(0.0, 1.0))))
    return h, dt


@settings(max_examples=500, deadline=None)
@given(_step_and_interval())
def test_em_split_gives_the_step_list(step_and_interval):
    h, dt = step_and_interval
    assume(dt > 0)
    n, rem = _em_split(dt, h)
    steps = _em_step_list(dt, h)
    assert n == len(steps)
    assert [h] * (n - (rem > 0)) + [rem] * (rem > 0) == steps


@settings(max_examples=500, deadline=None)
@given(st.lists(_step_and_interval(), min_size=1, max_size=6))
def test_em_plan_is_em_split_on_arrays(pairs):
    # the sample-grid table and the skeleton pass plan substeps on arrays
    for h, dt in pairs:
        assume(dt > 0)
        full, rem = _em_plan(np.array([dt, dt]), h)
        n, r = _em_split(dt, h)
        assert full.tolist() == [n - (r > 0)] * 2
        assert rem.tobytes() == np.array([r, r]).tobytes()


@st.composite
def _em_segments(draw):
    """Coefficients of every drift and diffusion kind (zero noise included),
    an Euler-Maruyama step, a start and a list of intervals, some of them
    whole or nearly whole multiples of the step."""
    cs = CoefficientSpec.from_dict({"drift": draw(_DRIFT_SPECS),
                                    "diffusion": draw(_DIFFUSION_SPECS),
                                    "jump": {"type": "constant", "size": 0.0}})
    step = draw(st.floats(1e-3, 2.0))
    interval = st.floats(1e-12, 3.0) | st.builds(
        lambda k, r: k * step * r, st.integers(1, 30), st.sampled_from([1.0, 1 - 1e-13, 1 + 1e-13]))
    return (cs, IntegratorConfig(EulerMaruyama(step), 0.1),
            draw(st.lists(interval, min_size=1, max_size=8)), draw(_finite(-3.0, 3.0)))


@settings(max_examples=300, deadline=None)
@given(_em_segments(), st.integers(0, 2**64 - 1))
def test_em_kernel_equals_one_call_per_substep(segment, seed):
    # the compiled kernel against the coefficient objects called at every
    # substep, bit for bit, taking the same normals
    cs, cfg, dts, x0 = segment
    n = 0 if _noiseless(cs) else sum(_em_split(dt, cfg.scheme.step)[0] for dt in dts)
    z = RandomStream(seed).normals(n).tolist()
    got, want = iter(z), iter(z)
    full, rem = _em_plan(np.array(dts), cfg.scheme.step)
    xs = []
    _em_kernel(cs)(x0, zip(memoryview(full), memoryview(rem)), cfg.scheme.step, got, xs)
    assert np.array(xs).tobytes() == np.array(em_segment_oracle(x0, dts, cs, cfg, want)).tobytes()
    assert next(got, None) is None and next(want, None) is None


@st.composite
def _em_advances(draw):
    """Coefficients of every drift and diffusion kind (zero noise included),
    positions, an interval dt and an Euler-Maruyama step above dt, below it
    or dividing it a whole number of times."""
    cs = CoefficientSpec.from_dict({"drift": draw(_DRIFT_SPECS),
                                    "diffusion": draw(_DIFFUSION_SPECS),
                                    "jump": {"type": "constant", "size": 0.0}})
    dt = draw(st.floats(1e-3, 5.0))
    step = draw(st.floats(dt, 10.0 * dt) | st.floats(dt / 300, dt)
                | st.integers(1, 50).map(lambda k: dt / k))
    return cs, IntegratorConfig(EulerMaruyama(step), 0.1), dt, draw(
        st.lists(_finite(-3.0, 3.0), max_size=20))


@settings(max_examples=300, deadline=None)
@given(_em_advances(), st.integers(0, 2**64 - 1))
def test_advance_many_equals_the_array_oracle(advance, seed):
    # the compiled kernel on arrays against one array step per substep, bit
    # for bit, drawing the same normals
    cs, cfg, dt, xs = advance
    got, want = RandomStream(seed), RandomStream(seed)
    x = advance_diffusion_many(np.array(xs), dt, cs, cfg, got)
    assert x.tobytes() == advance_many_oracle(np.array(xs), dt, cs, cfg, want).tobytes()
    assert got.uniform() == want.uniform()


# starts with signed zeros, subnormals and magnitudes whose square overflows
_EDGE_X = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e300, -1e300])
           | _finite(-3.0, 3.0))


@st.composite
def _em_plans(draw):
    """Coefficients of every drift and diffusion kind (zero noise included),
    a step and a plan: (whole steps, partial step) pairs, most of them one
    whole or one partial substep, some both."""
    cs = CoefficientSpec.from_dict({"drift": draw(_DRIFT_SPECS),
                                    "diffusion": draw(_DIFFUSION_SPECS),
                                    "jump": {"type": "constant", "size": 0.0}})
    h = draw(st.floats(1e-3, 2.0))
    partial = st.floats(1e-12, h, exclude_max=True)
    pair = (st.tuples(st.just(1), st.just(0.0)) | st.tuples(st.just(0), partial)
            | st.tuples(st.integers(0, 4), st.just(0.0) | partial))
    return cs, h, draw(st.lists(pair, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(_em_plans(), _EDGE_X, st.integers(0, 2**64 - 1))
def test_scalar_kernel_equals_the_array_kernel(plan, x0, seed):
    # the float kernel against the array kernel on one-element arrays, bit
    # for bit after each pair of the plan, taking the same normals
    cs, h, pairs = plan
    n = 0 if _noiseless(cs) else sum(full + (rem > 0) for full, rem in pairs)
    z = RandomStream(seed).normals(n)
    scalar, array = [], []
    got, want = iter(z.tolist()), (z[i:i + 1] for i in range(n))
    with np.errstate(all="ignore"):   # a square or a drift may overflow
        _em_kernel(cs)(x0, pairs, h, got, scalar)
        _em_kernel(cs, arrays=True)(np.array([x0]), pairs, h, want, array)
    assert all(type(x) is float for x in scalar)
    assert np.array(scalar).tobytes() == np.concatenate(array).tobytes()
    assert next(got, None) is None and next(want, None) is None


def test_em_kernel_compiled_once_per_coefficient_pair():
    cs = _COEFFS[3]
    again = CoefficientSpec(BoundedSmoothDrift(2.0), SmoothBoundedDiffusion(0.5, 1.5),
                            LinearDampingJump(0.5))
    assert _em_kernel(cs) is _em_kernel(again)
    assert _em_kernel(cs) is not _em_kernel(_COEFFS[0])


def _em_model(sigma):
    return make_model(1, [{"type": "constant", "level": 1.0}], [0.0], [1.0],
                      {"type": "linear", "rate": 1.0}, {"type": "constant", "value": sigma},
                      {"type": "constant", "size": 0.0})


@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_em_substeps_beyond_exact_counts_are_refused(sigma):
    # before any normal is drawn, or any of 1e300 noiseless steps taken
    cfg = IntegratorConfig(EulerMaruyama(1e-300), 0.1)
    with pytest.raises(hjsim.SimulationLimitError, match="substeps"):
        hjsim.simulate_path(_em_model(sigma), 1.0, cfg, seed=0)


@pytest.mark.parametrize("sigma", [1.0, 0.0])
@pytest.mark.parametrize("step", [1e-12, 1e-9])
def test_more_than_1e8_substeps_per_path_are_refused(sigma, step):
    # hours of noiseless stepping, or gigabytes of held noise, refused at once
    model, cfg = _em_model(sigma), IntegratorConfig(EulerMaruyama(step), 0.5)
    message = f"step of {step!r} over 1.0 gives {1 / step:.3g} substeps, more than 1e+08"
    for run in (lambda: hjsim.simulate_path(model, 1.0, cfg, seed=0),
                lambda: hjsim.simulate_ensemble(model, 1.0, cfg, 0, 3),
                lambda: hjsim.simulate_path_reference(model, 1.0, cfg, seed=0),
                lambda: advance_diffusion_many(np.zeros(3), 1.0, model.coefficients, cfg,
                                               RandomStream(0))):
        with pytest.raises(hjsim.SimulationLimitError, match=re.escape(message)):
            run()


def test_the_substep_cap_counts_one_path():
    # the engine checks the horizon of one path, so a wide group's total
    # may pass 1e8; a path of exactly 1e8 substeps passes too
    _check_substeps(1.0, EulerMaruyama(1e-8))
    _check_substeps(1e12, ExactOU())
    with pytest.raises(hjsim.SimulationLimitError, match="1e-08 over 1.0000001 gives 1e\\+08"):
        _check_substeps(1.0000001, EulerMaruyama(1e-8))


class TestJumps:
    def test_constant_jump(self):
        cs = coeffs(jump=ConstantJump(1.0))
        assert 0.0 + cs.jump(0.0) == 1.0

    def test_damping_jump(self):
        cs = coeffs(jump=LinearDampingJump(0.5))
        assert 4.0 + cs.jump(4.0) == 2.0

    def test_zero_jump_is_identity(self):
        cs = coeffs(jump=ConstantJump(0.0))
        assert 1.234 + cs.jump(1.234) == 1.234


class TestExpEach:
    """``_exp_each`` must give ``math.exp`` of every element, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-800.0, 709.78, allow_nan=False), max_size=40))
    def test_is_libm_exp(self, values):
        want = np.array([math.exp(v) for v in values], dtype=float)
        assert _exp_each(np.array(values, dtype=float)).tobytes() == want.tobytes()

    def test_is_libm_exp_on_a_dense_range(self):
        # past 709 the complex exp rescales and the elementwise form takes over
        values = np.concatenate([np.linspace(-746.0, 709.78, 400_001),
                                 -np.geomspace(1e-300, 1.0, 1001), [0.0, -0.0, -math.inf]])
        want = np.fromiter(map(math.exp, values.tolist()), float, len(values))
        assert _exp_each(values).tobytes() == want.tobytes()

    def test_overflow_raises_as_libm_exp(self):
        with pytest.raises(OverflowError):
            _exp_each(np.array([0.0, 710.0]))
