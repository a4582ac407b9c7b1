import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import hjsim
from hjsim.diffusion import (EulerMaruyama, ExactOU, IntegratorConfig,
                             _advance_segment, _em_kernel, _em_plan, _em_split, _n_normals,
                             _noiseless, advance_diffusion, advance_diffusion_many,
                             apply_state_jump)
from hjsim.model import (CoefficientSpec, ConstantDiffusion, ConstantJump,
                         BoundedSmoothDrift, LinearDampingJump, LinearDrift,
                         SmoothBoundedDiffusion)
from hjsim.rng import RandomStream

from helpers import _DIFFUSION_SPECS, _DRIFT_SPECS, _finite, em_segment_oracle, make_model


def coeffs(rate=1.0, intercept=0.0, sigma=1.0, jump=None):
    return CoefficientSpec(LinearDrift(rate, intercept), ConstantDiffusion(sigma),
                           jump or ConstantJump(0.0))


class TestDeterministicLimits:
    def test_exact_decay_without_noise(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        x = advance_diffusion(1.0, 1.0, coeffs(sigma=0.0), cfg, RandomStream(0))
        assert x == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_pure_drift(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        x = advance_diffusion(0.0, 2.5, coeffs(rate=0.0, intercept=1.0, sigma=0.0),
                              cfg, RandomStream(0))
        assert x == pytest.approx(2.5, rel=1e-12)

    def test_euler_first_order_convergence_deterministic(self):
        errors = []
        hs = [1e-1, 1e-2, 1e-3]
        for h in hs:
            cfg = IntegratorConfig(EulerMaruyama(h), 0.1)
            x = advance_diffusion(1.0, 1.0, coeffs(sigma=0.0), cfg, RandomStream(0))
            errors.append(abs(x - math.exp(-1.0)))
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("rate", [2.225073858507e-311, -1e-310])
    def test_rate_too_small_for_the_mean_level(self, rate):
        # intercept / rate overflows: the transition is the zero-rate one
        cfg = IntegratorConfig(ExactOU(), 0.1)
        cs = coeffs(rate=rate, intercept=1.0, sigma=0.0)
        assert advance_diffusion(0.5, 2.0, cs, cfg, RandomStream(0)) == 2.5
        noisy = coeffs(rate=rate, intercept=1.0, sigma=1.0)
        z = float(RandomStream(0).normal())
        assert advance_diffusion(0.5, 2.0, noisy, cfg, RandomStream(0)) == 2.5 + math.sqrt(2.0) * z

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
        advance_diffusion(1.0, 1.0, coeffs(sigma=0.0), cfg, rng)
        assert rng.uniform() == RandomStream(77).uniform()


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
        cfg = IntegratorConfig(ExactOU(), 0.1)
        cs = CoefficientSpec(BoundedSmoothDrift(1.0, 1.0), ConstantDiffusion(1.0),
                             ConstantJump(0.0))
        with pytest.raises(ValueError):
            advance_diffusion(0.0, 1.0, cs, cfg, RandomStream(0))

    def test_rejects_nonpositive_dt(self):
        cfg = IntegratorConfig(ExactOU(), 0.1)
        with pytest.raises(ValueError):
            advance_diffusion(0.0, 0.0, coeffs(), cfg, RandomStream(0))


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
        x = advance_diffusion(1.0, 0.25, coeffs(sigma=0.0), cfg, RandomStream(0))
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
        # one block of draws for the whole segment, against one advance per interval
        cfg = IntegratorConfig(scheme, 0.1)
        dts = [0.3, 0.07, 1e-3, 0.25, 0.14, 2.0, 0.07 * 3]
        a, b = RandomStream(5), RandomStream(5)
        for rng in (a, b):
            rng.uniforms(1020)  # the block crosses a buffer refill
        x, chained = 0.4, []
        for dt in dts:
            x = advance_diffusion(x, dt, cs, cfg, b)
            chained.append(x)
        z = iter(a.normals(_n_normals(dts, cs, cfg)).tolist())
        assert _advance_segment(0.4, dts, cs, cfg, z) == chained
        assert next(z, None) is None
        assert a.uniform() == b.uniform()


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
    # phase 1 of the engine takes _n_normals draws for a segment and phase 2
    # steps through them; every golden digest rests on the two agreeing
    cs, cfg, dts = segment
    rng = RandomStream(seed)
    drawn = []

    def normals():
        while True:
            drawn.append(rng.normal())
            yield drawn[-1]

    xs = _advance_segment(0.4, dts, cs, cfg, normals())
    n = _n_normals(dts, cs, cfg)
    assert len(drawn) == n
    assert rng.uniform() == RandomStream(seed).uniforms(n + 1)[n]
    assert _advance_segment(0.4, dts, cs, cfg, iter(drawn)) == xs


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
    xs = np.array(_advance_segment(x0, dts, cs, cfg, got))
    assert xs.tobytes() == np.array(em_segment_oracle(x0, dts, cs, cfg, want)).tobytes()
    assert next(got, None) is None and next(want, None) is None
    assert _n_normals(dts, cs, cfg) == n


def test_em_kernel_compiled_once_per_coefficient_pair():
    cs = _COEFFS[3]
    again = CoefficientSpec(BoundedSmoothDrift(2.0), SmoothBoundedDiffusion(0.5, 1.5),
                            LinearDampingJump(0.5))
    assert _em_kernel(cs) is _em_kernel(again)
    assert _em_kernel(cs) is not _em_kernel(_COEFFS[0])


@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_em_substeps_beyond_exact_counts_are_refused(sigma):
    # before any normal is drawn, or any of 1e300 noiseless steps taken
    model = make_model(1, [{"type": "constant", "level": 1.0}], [0.0], [1.0],
                       {"type": "linear", "rate": 1.0}, {"type": "constant", "value": sigma},
                       {"type": "constant", "size": 0.0})
    cfg = IntegratorConfig(EulerMaruyama(1e-300), 0.1)
    with pytest.raises(ValueError, match="substeps"):
        hjsim.simulate_path(model, 1.0, cfg, seed=0)


def test_em_substep_limit_message_prints_plain_floats():
    with pytest.raises(ValueError) as info:
        _em_plan(np.array([2.5, 2.49]), 1e-300)
    assert str(info.value) == ("an Euler-Maruyama step of 1e-300 gives more than "
                               f"{2 ** 53} substeps over 4.99")


class TestJumps:
    def test_constant_jump(self):
        cs = coeffs(jump=ConstantJump(1.0))
        assert apply_state_jump(0.0, cs) == 1.0

    def test_damping_jump(self):
        cs = coeffs(jump=LinearDampingJump(0.5))
        assert apply_state_jump(4.0, cs) == 2.0

    def test_zero_jump_is_identity(self):
        cs = coeffs(jump=ConstantJump(0.0))
        assert apply_state_jump(1.234, cs) == 1.234
