import math
import pickle

import numpy as np
import pytest
from scipy import special

import hjsim
from hjsim.model import (_DIFFUSION_KINDS, _DRIFT_KINDS, _JUMP_KINDS, _MAX_COMPONENTS,
                         _RATE_KINDS, AffineClippedRate,
                         BoundedSmoothDrift, ConfigError, ConstantDiffusion, ConstantJump, ConstantRate,
                         KernelMatrix, LinearDampingJump, LinearDrift, ModelSpec,
                         PowerBoundedJump, SigmoidRate, SmoothBoundedDiffusion,
                         State, expit, model_digest, model_from_dict, model_to_dict)
from hjsim.stability import stability_data, stability_report

from helpers import constant_rate_config, make_model, polynomial_model, reference_model


class TestRateFunctions:
    def test_affine_clipped_values(self):
        f = AffineClippedRate(floor=0.1, intercept=1.0, slope=1.0)
        assert f(2.0) == 3.0
        assert f(-10.0) == 0.1

    def test_sigmoid_midpoint(self):
        f = SigmoidRate(height=2.0, steepness=1.0, center=0.0)
        assert f(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_lipschitz_constants(self):
        assert AffineClippedRate(0.1, 1.0, 1.0).lipschitz_constant() == 1.0
        assert ConstantRate(3.0).lipschitz_constant() == 0.0
        assert SigmoidRate(2.0, 1.0, 0.0).lipschitz_constant() == 0.5

    def test_sigmoid_lipschitz_matches_numeric_max_slope(self):
        # independent oracle: maximise the difference quotient on a dense grid
        f = SigmoidRate(height=2.0, steepness=1.3, center=0.4)
        u = np.linspace(-15, 15, 200_001)
        v = f(u)
        slopes = np.abs(np.diff(v) / np.diff(u))
        assert f.lipschitz_constant() == pytest.approx(2.0 * 1.3 / 4.0)
        assert slopes.max() <= f.lipschitz_constant() + 1e-9
        assert slopes.max() == pytest.approx(f.lipschitz_constant(), rel=1e-4)

    @pytest.mark.parametrize("f", [
        AffineClippedRate(0.1, 1.0, 1.0),
        AffineClippedRate(0.5, -2.0, -0.7),
        SigmoidRate(2.0, 1.0, 0.0),
        SigmoidRate(5.0, 0.25, -3.0),
        ConstantRate(3.0),
    ])
    def test_lipschitz_bound_on_random_pairs(self, f):
        rng = np.random.default_rng(1)
        u = rng.uniform(-100, 100, size=100_000)
        v = rng.uniform(-100, 100, size=100_000)
        gamma = f.lipschitz_constant()
        assert np.all(np.abs(f(u) - f(v)) <= gamma * np.abs(u - v) + 1e-12)

    @pytest.mark.parametrize("f", [
        AffineClippedRate(0.1, 1.0, 1.0),
        SigmoidRate(2.0, 1.0, 0.0),
        ConstantRate(3.0),
    ])
    def test_strict_positivity_over_wide_range(self, f):
        rng = np.random.default_rng(2)
        u = rng.uniform(-1e6, 1e6, size=1_000_000)
        assert np.all(f(u) > 0)

    @pytest.mark.parametrize("f", [
        SigmoidRate(2.0, 1.0, 0.0),
        SigmoidRate(0.3, 50.0, -2.0),     # exp overflows for most u below the center
        SigmoidRate(1e-300, 3.0, 1.0),    # the floor holds wherever the sigmoid is small
        AffineClippedRate(0.1, 1.0, 1.0),
        AffineClippedRate(0.5, -1.0, -2.5),
        ConstantRate(0.7),
    ])
    def test_scalar_form_equals_the_array_form(self, f):
        # the thinning loop's one-float rates give the bits of __call__ on
        # arrays, through exp's overflow region and on NaN and infinities
        us = np.concatenate([np.linspace(-1e3, 1e3, 200_001),
                             np.random.default_rng(4).uniform(-1e3, 1e3, 100_000),
                             [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -745.2, -709.8]])
        with np.errstate(invalid="ignore"):
            want = f(us)
        got = np.array([f.at(u) for u in us.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AffineClippedRate(floor=0.0, intercept=1.0, slope=1.0)
        with pytest.raises(ValueError):
            SigmoidRate(height=-1.0, steepness=1.0, center=0.0)
        with pytest.raises(ValueError):
            ConstantRate(0.0)


class TestExpit:
    """``scipy.special.expit`` is the oracle of hjsim's numpy sigmoid."""

    def test_is_scipys_on_arrays(self):
        # signed zeros, infinities, NaNs of either sign, and both ends of
        # exp's range: exp(-v) underflows from v = 708 on and overflows
        # below v = -709.78, where the sigmoid is 0
        v = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
                            np.linspace(-746.0, -700.0, 46_001), np.linspace(700.0, 746.0, 46_001),
                            np.random.default_rng(6).normal(0.0, 30.0, 10_000)])
        assert expit(v).tobytes() == special.expit(v).tobytes()
        assert expit(v.reshape(-1, 2)).tobytes() == special.expit(v.reshape(-1, 2)).tobytes()

    @pytest.mark.parametrize("v", [0.0, -0.0, 0.5, -720.0, 745.5, -745.5, math.inf, -math.inf,
                                   math.nan, -math.nan, np.float64(3.0), np.array(-710.0)])
    def test_is_scipys_on_scalars(self, v):
        # a float, a numpy scalar or a 0-d array in, a numpy float out
        got, want = expit(v), special.expit(v)
        assert type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes()


# one family of each kind
FAMILIES = [AffineClippedRate(0.1, 1.0, 1.3), SigmoidRate(2.0, 1.3, 0.4), ConstantRate(0.7),
            LinearDrift(0.7, -0.3), BoundedSmoothDrift(2.0, 1.3), ConstantDiffusion(0.9),
            SmoothBoundedDiffusion(0.5, 1.5), ConstantJump(-0.4), LinearDampingJump(0.5),
            PowerBoundedJump(1.5, 0.5)]
REGISTRIES = [_RATE_KINDS, _DRIFT_KINDS, _DIFFUSION_KINDS, _JUMP_KINDS]


class TestCoefficients:
    @pytest.mark.parametrize("f, by_hand", [
        (LinearDrift(0.7, -0.3), lambda x: -0.3 - 0.7 * x),
        (LinearDrift(-0.0, -0.0), lambda x: -0.0 - -0.0 * x),
        (BoundedSmoothDrift(2.0, 1.3), lambda x: -2.0 * np.tanh(1.3 * x)),
        (ConstantDiffusion(0.9), lambda x: 0.9 + 0.0 * x),
        (SmoothBoundedDiffusion(0.5, 1.5), lambda x: 0.5 + (1.5 - 0.5) / (1.0 + x * x)),
        (AffineClippedRate(0.1, 1.0, 1.3), lambda u: np.maximum(0.1, 1.0 + 1.3 * u)),
        (AffineClippedRate(0.1, -0.5, 0.0), lambda u: np.maximum(0.1, -0.5 + 0.0 * u)),
        # the sigmoid underflows below u = -5.3 here, where the floor holds
        (SigmoidRate(2.0, 130.0, 0.4),
         lambda u: np.maximum(np.finfo(float).tiny, 2.0 * special.expit(130.0 * (u - 0.4)))),
        (ConstantRate(0.7), lambda u: 0.7 + 0.0 * u),
        (ConstantJump(-0.4), lambda x: -0.4 + 0.0 * x),
        (ConstantJump(0.0), lambda x: 0.0 + 0.0 * x),
        (LinearDampingJump(0.5), lambda x: -0.5 * x),
        (LinearDampingJump(0.0), lambda x: -0.0 * x),
        (PowerBoundedJump(1.5, 0.5), lambda x: 1.5 * x * (1.0 + x * x) ** ((0.5 - 1.0) / 2.0)),
        (PowerBoundedJump(-0.8, -2.5),
         lambda x: -0.8 * x * (1.0 + x * x) ** ((-2.5 - 1.0) / 2.0)),
    ])
    def test_formula_is_the_expression_by_hand(self, f, by_hand):
        # each family states its map once, as text; it must round as the
        # expression written out does, on arrays and on one float
        xs = np.concatenate([np.random.default_rng(5).normal(0.0, 3.0, 10_000),
                             [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore", over="ignore"):
            assert f(xs).tobytes() == by_hand(xs).tobytes()
            one = np.array([float(f(x)) for x in xs.tolist()])
            assert one.tobytes() == np.array([float(by_hand(x)) for x in xs.tolist()]).tobytes()

    def test_coefficients_pickle_after_a_call(self):
        # the instance keeps the formula's source, not the compiled function,
        # so a called family still goes to worker processes
        for f in FAMILIES:
            f(0.25)
            again = pickle.loads(pickle.dumps(f))
            assert again == f and again(0.25) == f(0.25)

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: type(f).__name__)
    def test_a_called_coefficient_pickles_with_its_source(self, f):
        # one call caches the compiled source on the instance; the unpickled
        # copy evaluates as the original on a float and on an array
        xs = np.linspace(-3.0, 3.0, 13)
        f(0.25)
        assert "_source" in vars(f)
        again = pickle.loads(pickle.dumps(f))
        assert again(0.25) == f(0.25)
        assert again(xs).tobytes() == f(xs).tobytes()

    def test_every_family_is_pickled_above(self):
        assert {type(f) for f in FAMILIES} == {c for r in REGISTRIES for c in r.values()}

    def test_every_family_is_a_formula(self):
        # one mechanism evaluates every map: the compiled formula
        for cls in (c for r in REGISTRIES for c in r.values()):
            assert "__call__" not in vars(cls), cls.__name__
            assert isinstance(vars(cls).get("formula"), str), cls.__name__

    def test_linear_drift(self):
        b = LinearDrift(rate=2.0, intercept=1.0)
        assert b(3.0) == 1.0 - 6.0
        assert b.lipschitz_constant() == 2.0

    def test_bounded_smooth_drift_confinement(self):
        b = BoundedSmoothDrift(amplitude=2.0, steepness=1.0)
        assert b.min_quadratic_confinement(1.0) == 0.0
        assert b.min_linear_confinement(1.0) == pytest.approx(2.0 * math.tanh(1.0))
        xs = np.linspace(1.0, 50.0, 500)
        assert np.all(-xs * b(xs) >= b.min_linear_confinement(1.0) - 1e-12)

    def test_linear_drift_linear_confinement_handles_vertex(self):
        b = LinearDrift(rate=1.0, intercept=3.0)
        # -x b(x) = x^2 - 3x has its minimum at x = 1.5 inside |x| > 1
        assert b.min_linear_confinement(1.0) == pytest.approx(1.5 ** 2 - 3 * 1.5)
        xs = np.concatenate([np.linspace(-50, -1, 300), np.linspace(1, 50, 300)])
        assert np.min(-xs * b(xs)) >= b.min_linear_confinement(1.0) - 1e-9

    def test_diffusion_bounds(self):
        assert ConstantDiffusion(1.5).sigma_sq_bounds() == (2.25, 2.25)
        s = SmoothBoundedDiffusion(0.5, 1.0)
        xs = np.linspace(-100, 100, 10_001)
        vals = s(xs) ** 2
        lo, hi = s.sigma_sq_bounds()
        assert np.all((vals >= lo - 1e-12) & (vals <= hi + 1e-12))

    def test_power_bounded_jump_envelope(self):
        a = PowerBoundedJump(coeff=1.5, exponent=0.5)
        c, eta = a.power_envelope()
        xs = np.linspace(-100, 100, 10_001)
        xs = xs[xs != 0]
        assert np.all(np.abs(a(xs)) <= c * np.abs(xs) ** eta + 1e-12)
        assert a(0.0) == 0.0

    def test_linear_damping_range(self):
        assert LinearDampingJump(0.5)(4.0) == -2.0
        with pytest.raises(ValueError):
            LinearDampingJump(2.5)

    @pytest.mark.parametrize("intercept, want", [(0.0, 0.0), (-0.0, 0.0), (0.5, -math.inf),
                                                 (-0.5, -math.inf)])
    def test_linear_confinement_without_a_rate(self, intercept, want):
        # -x*b(x) = intercept*x takes either sign beyond any radius unless it is 0
        assert LinearDrift(0.0, intercept).min_linear_confinement(1.0) == want


class TestKernelAndState:
    def test_degenerate_flags(self):
        k = KernelMatrix(c=[[1.0, 1.0], [1.0, 1.0]], alpha=[[1.0, 2.0], [1.0, 3.0]])
        assert k.is_degenerate  # repeated alpha in column 1
        assert k.degenerate_columns()[0][0] == 1
        k2 = KernelMatrix(c=[[1.0, 0.0], [1.0, 1.0]], alpha=[[1.0, 2.0], [1.5, 3.0]])
        assert k2.degenerate_columns() == [(2, "zero amplitude")]
        k3 = KernelMatrix(c=[[1.0, 1.0], [1.0, 1.0]], alpha=[[1.0, 2.0], [1.5, 3.0]])
        assert not k3.is_degenerate

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelMatrix(c=[[1.0]], alpha=[[0.0]])

    def test_state_requires_finite_entries(self):
        with pytest.raises(ValueError):
            State(math.nan, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            State(0.0, np.array([[math.inf]]))

    def test_arrays_are_frozen(self):
        k = KernelMatrix(c=[[1.0]], alpha=[[1.0]])
        with pytest.raises(ValueError):
            k.c[0, 0] = 2.0

    def test_components_above_the_cap_are_refused(self):
        model = model_from_dict(constant_rate_config(_MAX_COMPONENTS))
        assert model.n_components == _MAX_COMPONENTS
        m = _MAX_COMPONENTS + 1
        with pytest.raises(ConfigError) as info:
            model_from_dict(constant_rate_config(m))
        assert info.value.field == "M"
        with pytest.raises(ConfigError) as info:   # built directly, too
            ModelSpec(model.rates + model.rates[:1],
                      KernelMatrix(np.zeros((m, m)), np.ones((m, m))), model.coefficients,
                      State(0.0, np.zeros((m, m))))
        assert info.value.field == "M"

    @pytest.mark.parametrize("build, message", [
        (lambda ref: KernelMatrix(np.zeros((2, 3)), np.ones((2, 3))), "c must be a square matrix"),
        (lambda ref: KernelMatrix(np.zeros(4), np.ones(4)), "c must be a square matrix"),
        (lambda ref: KernelMatrix(np.zeros((2, 2)), np.ones((1, 1))),
         "alpha must have the same shape as c"),
        (lambda ref: KernelMatrix([[np.nan]], [[1.0]]), "c entries must be finite"),
        (lambda ref: KernelMatrix([[-np.inf]], [[1.0]]), "c entries must be finite"),
        (lambda ref: State(0.0, np.zeros((2, 3))), "y must be a square matrix"),
        (lambda ref: State(0.0, np.zeros(4)), "y must be a square matrix"),
        (lambda ref: ModelSpec(ref.rates * 2, ref.kernel, ref.coefficients, ref.initial),
         "expected 1 rate functions, got 2"),
        (lambda ref: ModelSpec((), ref.kernel, ref.coefficients, ref.initial),
         "expected 1 rate functions, got 0"),
        (lambda ref: ModelSpec(ref.rates, ref.kernel, ref.coefficients,
                               State(0.0, np.zeros((2, 2)))),
         "initial y dimension does not match the kernel"),
    ])
    def test_direct_construction_refusals(self, build, message):
        with pytest.raises(ValueError) as info:
            build(reference_model())
        assert type(info.value) is ValueError and str(info.value) == message


class TestAssumptions:
    def test_damping_jump_gives_exponential_frame(self):
        model = reference_model()
        rep = hjsim.check_assumptions(model, 10.0)
        assert rep.frame == "exponential"
        assert rep.d is not None and rep.d > 0
        assert rep.sigma_bounds_ok
        assert stability_report(model, n_points=500)["stability_ok"] is True

    def test_constant_jump_exponential_via_power_envelope(self):
        model = make_model(
            1, [{"type": "constant", "level": 1.0}], [0.1], [1.0],
            {"type": "linear", "rate": 1.0, "intercept": 0.0},
            {"type": "constant", "value": 1.0},
            {"type": "constant", "size": 1.0})
        rep = hjsim.check_assumptions(model, 10.0)
        assert rep.frame == "exponential"

    def test_repelling_drift_is_neither(self):
        model = make_model(
            1, [{"type": "constant", "level": 1.0}], [0.1], [1.0],
            {"type": "linear", "rate": -1.0, "intercept": 0.0},
            {"type": "constant", "value": 1.0},
            {"type": "constant", "size": 0.0})
        rep = hjsim.check_assumptions(model, 5.0)
        assert rep.frame == "neither"
        assert rep.violating_point is not None

    def test_neither_is_monotone_in_scan_radius(self):
        model = make_model(
            1, [{"type": "constant", "level": 1.0}], [0.1], [1.0],
            {"type": "linear", "rate": -1.0, "intercept": 0.0},
            {"type": "constant", "value": 1.0},
            {"type": "constant", "size": 0.0})
        for radius in (5.0, 10.0, 40.0):
            assert hjsim.check_assumptions(model, radius).frame == "neither"

    def test_neither_names_where_the_jump_map_fails(self):
        # bounded drift rules out the exponential frame, and the jump map
        # 0.8 |x|^0.5 pushes outward, so the polynomial frame fails too
        model = make_model(
            1, [{"type": "constant", "level": 1.0}], [0.1], [1.0],
            {"type": "bounded_smooth", "amplitude": 2.0, "steepness": 1.0},
            {"type": "constant", "value": 1.0},
            {"type": "power_bounded", "coeff": 0.8, "exponent": 0.5})
        rep = hjsim.check_assumptions(model, 20.0)
        assert rep.frame == "neither"
        assert rep.violating_point == pytest.approx(20.0 * 101 / 201, rel=1e-12)
        assert rep.notes == "jump conditions fail at x = 10.0498"

    def test_bounded_drift_gives_polynomial_frame(self):
        rep = hjsim.check_assumptions(polynomial_model(), 20.0)
        assert rep.frame == "polynomial"
        assert rep.gamma is not None and rep.gamma > 0.5
        assert rep.m_interval is not None and rep.m_interval[0] == 2.0

    def test_zero_noise_fails_ellipticity(self):
        model = make_model(
            1, [{"type": "constant", "level": 1.0}], [0.1], [1.0],
            {"type": "linear", "rate": 1.0, "intercept": 0.0},
            {"type": "constant", "value": 0.0},
            {"type": "constant", "size": 0.0})
        rep = hjsim.check_assumptions(model, 5.0)
        assert not rep.sigma_bounds_ok

    def test_supercritical_flagged(self):
        # subcriticality is read from the interaction matrix's Perron data
        from helpers import supercritical_model
        model = supercritical_model()
        assert stability_data(model).spectral_radius == pytest.approx(2.0, abs=1e-9)
        assert stability_report(model, 5.0, n_points=500)["stability_ok"] is False

    def test_rejects_bad_scan_parameters(self):
        model = reference_model()
        with pytest.raises(ValueError):
            hjsim.check_assumptions(model, -1.0)


class TestSerialization:
    def test_round_trip_preserves_model(self):
        model = polynomial_model()
        again = model_from_dict(model_to_dict(model))
        assert again == model
        assert model_digest(again) == model_digest(model)

    def test_zero_alpha_names_entry(self):
        with pytest.raises(ConfigError) as err:
            make_model(1, [{"type": "constant", "level": 1.0}], [0.1], [0.0],
                       {"type": "linear", "rate": 1.0, "intercept": 0.0},
                       {"type": "constant", "value": 1.0},
                       {"type": "constant", "size": 0.0})
        assert err.value.field == "kernel.alpha[0][0]"

    def test_rate_count_mismatch(self):
        with pytest.raises(ConfigError) as err:
            make_model(2, [{"type": "constant", "level": 1.0}], [0.1] * 4, [1.0] * 4,
                       {"type": "linear", "rate": 1.0, "intercept": 0.0},
                       {"type": "constant", "value": 1.0},
                       {"type": "constant", "size": 0.0})
        assert err.value.field == "rates"

    def test_unknown_variant_type(self):
        with pytest.raises(ConfigError) as err:
            make_model(1, [{"type": "quadratic"}], [0.1], [1.0],
                       {"type": "linear", "rate": 1.0, "intercept": 0.0},
                       {"type": "constant", "value": 1.0},
                       {"type": "constant", "size": 0.0})
        assert err.value.field == "rates[0].type"

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(coefficients=5), "coefficients"),
        (lambda d: d["coefficients"].pop("jump"), "coefficients.jump"),
        (lambda d: d["coefficients"]["drift"].update(type={}), "coefficients.drift.type"),
        (lambda d: d["rates"][0].update(type=[1]), "rates[0].type"),
        (lambda d: d["rates"].__setitem__(0, "constant"), "rates[0]"),
    ])
    def test_malformed_variant_names_field(self, edit, field):
        d = model_to_dict(reference_model())
        edit(d)
        with pytest.raises(ConfigError) as err:
            model_from_dict(d)
        assert err.value.field == field

    def test_nested_matrix_accepted(self):
        model = hjsim.model_from_dict({
            "M": 2,
            "rates": [{"type": "constant", "level": 1.0}] * 2,
            "kernel": {"c": [[0.1, 0.2], [0.3, 0.4]],
                       "alpha": [[1.0, 2.0], [3.0, 4.0]]},
            "coefficients": {"drift": {"type": "linear", "rate": 1.0, "intercept": 0.0},
                             "diffusion": {"type": "constant", "value": 1.0},
                             "jump": {"type": "constant", "size": 0.0}},
            "initial": {"x": 0.0, "y": [0.0, 0.0, 0.0, 0.0]},
        })
        assert model.kernel.c[1, 0] == 0.3
