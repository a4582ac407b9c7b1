import dataclasses
import math

import numpy as np
import pytest

import hjsim
from hjsim import engine
from hjsim.model import KernelMatrix
from hjsim.stability import (LyapunovSpec, _spec_from_report, drift_scan, dynkin_quotient,
                             generator_apply, interaction_matrix,
                             lyapunov_value, perron_left_vector,
                             spectral_radius, stability_data, stability_report,
                             vandermonde_check, vandermonde_matrix)

from helpers import (make_model, ou_cfg, polynomial_model, random_state,
                     reference_model, supercritical_model, two_component_model)


class TestInteractionMatrix:
    def test_single_component(self):
        np.testing.assert_allclose(interaction_matrix(reference_model()), [[0.5]])

    def test_zero_amplitudes(self):
        from helpers import poisson_model
        np.testing.assert_allclose(interaction_matrix(poisson_model()), np.zeros((2, 2)))

    def test_entrywise_formula(self):
        h = interaction_matrix(two_component_model())
        np.testing.assert_allclose(h, [[0.3, 0.2], [0.1, 0.4]])


class TestSpectralRadius:
    def test_one_by_one(self):
        assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5, abs=1e-10)

    def test_hand_derived_two_by_two(self):
        # characteristic polynomial x^2 - 0.7x + 0.10 has roots 0.5 and 0.2
        h = np.array([[0.3, 0.2], [0.1, 0.4]])
        assert spectral_radius(h) == pytest.approx(0.5, abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = rng.uniform(0, 1, size=(4, 4))
            s = rng.uniform(0.1, 1e6)
            assert spectral_radius(s * h) == pytest.approx(
                s * spectral_radius(h), rel=1e-9)
            assert perron_left_vector(s * h) == pytest.approx(
                perron_left_vector(h), rel=1e-9)

    def test_row_sum_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = rng.integers(2, 6)
            h = rng.uniform(0, 2, size=(n, n))
            rho = spectral_radius(h)
            sums = h.sum(axis=1)
            assert sums.min() - 1e-9 <= rho <= sums.max() + 1e-9

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[-0.1]]))

    def test_nilpotent_matrix_is_exactly_zero(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_nearly_repeated_root(self):
        # a power iteration converges at rate 0.4999999/0.5 here
        h = np.array([[0.5, 1e-8], [0.0, 0.4999999]])
        assert spectral_radius(h) == pytest.approx(0.5, rel=1e-12)
        # kappa H = 0.5 kappa forces kappa2 = kappa1 / 10
        assert perron_left_vector(h) == pytest.approx([10 / 11, 1 / 11], rel=1e-9)


class TestPerronVector:
    def test_one_by_one(self):
        assert perron_left_vector(np.array([[0.5]])) == pytest.approx([1.0])

    def test_symmetric_matrix(self):
        h = np.array([[0.2, 0.1], [0.1, 0.2]])
        assert perron_left_vector(h) == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_hand_solved_eigenvector(self):
        # kappa H = 0.5 kappa forces kappa2 = 2 kappa1
        h = np.array([[0.3, 0.2], [0.1, 0.4]])
        assert perron_left_vector(h) == pytest.approx([1 / 3, 2 / 3], abs=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = rng.uniform(0, 1.5, size=(5, 5))
            kappa = perron_left_vector(h)
            rho = spectral_radius(h)
            assert np.all(kappa >= 0)
            assert kappa.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(kappa @ h - rho * kappa)) <= 1e-10 * max(1.0, rho)


class TestLyapunovValue:
    def test_origin_value(self):
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        z = hjsim.State(0.0, np.zeros((1, 1)))
        assert lyapunov_value(lyap, stab, z) == 1.0

    def test_pure_x_contribution(self):
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        z = hjsim.State(2.0, np.zeros((1, 1)))
        assert lyapunov_value(lyap, stab, z) == pytest.approx(5.0)

    def test_memory_weight_formula(self):
        # single component with decay 2: weight = kappa / alpha = 1/2
        model = make_model(1, [{"type": "affine_clipped", "floor": 0.1,
                                "intercept": 1.0, "slope": 1.0}],
                           [0.5], [2.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        z = hjsim.State(0.0, np.array([[3.0]]))
        assert lyapunov_value(lyap, stab, z) == pytest.approx(math.exp(1.5), rel=1e-12)

    def test_overflow_guard(self):
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        with pytest.raises(OverflowError):
            lyapunov_value(lyap, stab, hjsim.State(0.0, np.array([[800.0]])))

    def test_polynomial_value(self):
        lyap = LyapunovSpec("polynomial", poly_m=2.2)
        model = polynomial_model()
        stab = stability_data(model)
        z = hjsim.State(2.0, np.array([[1.0]]))
        expected = 1.0 + 2.0 ** 2.2 + math.exp(stab.exponent_weights[0, 0])
        assert lyapunov_value(lyap, stab, z) == pytest.approx(expected, rel=1e-12)

    def test_poly_m_validation(self):
        with pytest.raises(ValueError):
            LyapunovSpec("polynomial", poly_m=1.5)
        with pytest.raises(ValueError):
            LyapunovSpec("polynomial")


class TestGenerator:
    def test_hand_evaluated_memory_only_state(self):
        # zero amplitudes, constant rate, no displacement: A V = 1 - e at
        # x = 0, y = 1 (flow term minus nothing, diffusion term sigma^2 = 1)
        model = make_model(1, [{"type": "constant", "level": 0.7}],
                           [0.0], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        z = hjsim.State(0.0, np.array([[1.0]]))
        assert generator_apply(model, lyap, stab, z) == pytest.approx(
            1.0 - math.e, rel=1e-12)

    def test_reference_model_closed_form(self):
        # independent evaluation of every term at x = 0, y = 1
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        z = hjsim.State(0.0, np.array([[1.0]]))
        expected = -math.e + 1.0 + 2.0 * math.e * (math.exp(0.5) - 1.0)
        assert generator_apply(model, lyap, stab, z) == pytest.approx(expected, rel=1e-12)

    def test_near_pure_diffusion_limit(self):
        # vanishing memory and rate: only the diffusion term survives at x = 0
        model = make_model(1, [{"type": "constant", "level": 1e-12}],
                           [0.0], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        z = hjsim.State(0.0, np.array([[1e-12]]))
        assert generator_apply(model, lyap, stab, z) == pytest.approx(1.0, abs=1e-9)

    def test_refuses_zero_memory_entries(self):
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        with pytest.raises(ValueError):
            generator_apply(model, lyap, stab, hjsim.State(1.0, np.zeros((1, 1))))

    def test_refuses_zero_x_in_polynomial_frame(self):
        model = polynomial_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("polynomial", poly_m=2.2)
        with pytest.raises(ValueError):
            generator_apply(model, lyap, stab, hjsim.State(0.0, np.array([[1.0]])))

    def test_matches_monte_carlo_quotient(self):
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        rng = np.random.default_rng(11)
        cfg = ou_cfg(0.001)
        for k in range(3):
            z = random_state(rng, 1)
            exact = generator_apply(model, lyap, stab, z)
            quotient, se = dynkin_quotient(model, lyap, stab, z, 1e-3, 200_000,
                                           seed=50 + k, cfg=cfg)
            assert abs(quotient - exact) <= 3 * se

    def test_no_candidate_bearing_paths(self):
        # at dt = 1e-9 no path meets a thinning candidate
        model = reference_model()
        z = hjsim.State(0.5, np.array([[0.2]]))
        quotient, se = dynkin_quotient(model, LyapunovSpec("exponential"), stability_data(model),
                                       z, 1e-9, 5, seed=3, cfg=ou_cfg(0.01))
        assert np.isfinite(quotient) and np.isfinite(se)


    @pytest.mark.parametrize("n_paths", [1, 0, -3])
    def test_refuses_fewer_than_two_paths_before_any_draw(self, monkeypatch, n_paths):
        model = reference_model()
        monkeypatch.setattr(hjsim.stability, "RandomStream", lambda seed: pytest.fail("drew"))
        with pytest.raises(ValueError, match=r"^n_paths must be >= 2$"):
            dynkin_quotient(model, LyapunovSpec("exponential"), stability_data(model),
                            hjsim.State(0.5, np.array([[0.2]])), 1e-3, n_paths, seed=3,
                            cfg=ou_cfg(0.01))

    @pytest.mark.parametrize("dt", [1e-9, 0.05])
    def test_quotient_does_not_depend_on_the_walk(self, monkeypatch, dt):
        # 400 paths hold about 23 candidate-bearing ones at dt = 0.05 and none
        # at dt = 1e-9; a _LOCKSTEP_MIN of 1 walks them, or the empty group, in lockstep
        model = reference_model()
        args = (model, LyapunovSpec("exponential"), stability_data(model),
                hjsim.State(0.5, np.array([[0.2]])), dt, 400)
        scalar = dynkin_quotient(*args, seed=3, cfg=ou_cfg(0.01))
        monkeypatch.setattr(engine, "_LOCKSTEP_MIN", 1)
        assert dynkin_quotient(*args, seed=3, cfg=ou_cfg(0.01)) == scalar
        assert np.isfinite(scalar).all()


class TestDriftScan:
    def test_reference_model_negative_drift(self):
        model = reference_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        scan = drift_scan(model, lyap, stab, (-20, 20, -20, 20), 10_000, seed=1)
        assert scan.success
        assert scan.d2 > 0
        assert scan.n_violations == 0

    def test_supercritical_has_no_positive_d2(self):
        model = supercritical_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        scan = drift_scan(model, lyap, stab, (-20, 20, -20, 20), 10_000, seed=1)
        assert not scan.success
        assert scan.d2 <= 0

    def test_quiet_jump_limit_recovers_ou_constants(self):
        # negligible events: A V = sigma^2 - 2 x^2 on V1 = x^2, so with the
        # memory part pinned near zero the fit gives d2 near 2 and
        # d1 near sigma^2 + d2 (V is at least 1 at the x origin)
        model = make_model(1, [{"type": "constant", "level": 1e-8}],
                           [0.0], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        stab = stability_data(model)
        lyap = LyapunovSpec("exponential")
        scan = drift_scan(model, lyap, stab, (-20, 20, 0.001, 0.002), 5_000, seed=2)
        assert scan.success
        assert scan.d2 == pytest.approx(2.0, abs=0.1)
        assert scan.d1 == pytest.approx(1.0 + scan.d2, abs=0.3)
        assert scan.n_violations == 0

    def test_polynomial_frame_scan(self):
        model = polynomial_model()
        stab = stability_data(model)
        lyap = LyapunovSpec("polynomial", poly_m=2.19)
        scan = drift_scan(model, lyap, stab, (-20, 20, -20, 20), 10_000, seed=3)
        assert scan.success
        assert scan.d2 > 0
        assert scan.n_violations == 0


class TestVandermonde:
    def test_single_component_trivial(self):
        k = KernelMatrix(c=[[1.0]], alpha=[[1.0]])
        chk = vandermonde_check(k, 1, 1.0)
        assert chk.determinant == pytest.approx(1.0)
        assert chk.invertible

    def test_two_by_two_hand_value(self):
        k = KernelMatrix(c=[[1.0, 1.0], [1.0, 1.0]],
                         alpha=[[math.log(2), 1.0], [math.log(4), 2.0]])
        chk = vandermonde_check(k, 1, 1.0)
        assert chk.determinant == pytest.approx(0.25, rel=1e-12)
        assert chk.invertible

    def test_matches_product_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            alphas = rng.uniform(0.1, 3.0, size=n)
            t0 = float(rng.uniform(0.05, 1.5))
            det = float(np.linalg.det(vandermonde_matrix(alphas, t0)))
            x = np.exp(-alphas * t0)
            prod = 1.0
            for i in range(n):
                for j in range(i + 1, n):
                    prod *= x[i] - x[j]
            assert det == pytest.approx(prod, rel=1e-9, abs=1e-15)

    def test_distinct_decays_invertible(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            alphas = rng.uniform(0.1, 4.0, size=(3, 3))
            k = KernelMatrix(c=np.ones((3, 3)), alpha=alphas)
            for j in (1, 2, 3):
                for t0 in (0.1, 1.0):
                    assert vandermonde_check(k, j, t0).invertible

    def test_repeated_decays(self):
        k = KernelMatrix(c=[[1.0, 1.0], [1.0, 1.0]],
                         alpha=[[1.5, 1.0], [1.5, 2.0]])
        chk = vandermonde_check(k, 1, 0.5)
        assert abs(chk.determinant) <= 1e-12
        assert not chk.invertible

    def test_rejects_bad_inputs(self):
        k = KernelMatrix(c=[[1.0]], alpha=[[1.0]])
        with pytest.raises(IndexError):
            vandermonde_check(k, 2, 1.0)
        with pytest.raises(ValueError):
            vandermonde_matrix(np.array([1.0]), 0.0)


class TestReport:
    def test_report_shape(self):
        report = stability_report(reference_model(), n_points=2_000)
        assert report["spectral_radius"] == pytest.approx(0.5, abs=1e-9)
        assert report["frame"] == "exponential"
        assert report["stability_ok"]
        assert report["drift"]["success"]
        assert len(report["vandermonde"]) == 2  # one column, two spacings

    def test_supercritical_report(self):
        report = stability_report(supercritical_model(), n_points=2_000)
        assert not report["stability_ok"]
        assert report["frame"] == "exponential"
        assert not report["drift"]["success"]

    def test_report_finds_the_perron_data_once(self, monkeypatch):
        calls = []
        perron = hjsim.stability._perron
        monkeypatch.setattr(hjsim.stability, "_perron",
                            lambda mat: calls.append(1) or perron(mat))
        stability_report(polynomial_model(), n_points=500)
        assert len(calls) == 1

    def test_report_scans_with_the_spec_of_its_frame(self, monkeypatch):
        specs = []
        scan = hjsim.stability.drift_scan
        monkeypatch.setattr(hjsim.stability, "drift_scan",
                            lambda model, lyap, *a, **k: specs.append(lyap) or scan(
                                model, lyap, *a, **k))
        for model in (reference_model(), polynomial_model()):
            stability_report(model, n_points=500)
            assert specs.pop() == _spec_from_report(hjsim.check_assumptions(model, 20.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda model: spectral_radius(np.ones((2, 3))), ValueError, "matrix must be square"),
    (lambda model: LyapunovSpec("bogus"), ValueError,
     "frame must be 'exponential' or 'polynomial'"),
    (lambda model: _spec_from_report(dataclasses.replace(
        hjsim.check_assumptions(model, 20.0), frame="neither")), ValueError,
     "model is outside both confinement frames"),
    # V's memory exponent is 2000 here: exp of it overflows
    (lambda model: generator_apply(model, LyapunovSpec("exponential"), stability_data(model),
                                   hjsim.State(0.5, [[2000.0]])), OverflowError,
     "memory exponent exceeds the floating range; use drift_scan, which works with A V / V"),
    (lambda model: dynkin_quotient(model, LyapunovSpec("exponential"), stability_data(model),
                                   model.initial, 0.0, 100, 1, ou_cfg()), ValueError,
     "dt must be > 0"),
    (lambda model: dynkin_quotient(model, LyapunovSpec("exponential"), stability_data(model),
                                   model.initial, -1.0, 100, 1, ou_cfg()), ValueError,
     "dt must be > 0"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call(reference_model())
    assert type(info.value) is error and str(info.value) == message
