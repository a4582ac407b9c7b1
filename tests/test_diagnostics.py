import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import hjsim
from hjsim import diagnostics
from hjsim.diagnostics import (autocorr_decay, invariant_histogram, make_observable,
                               mixing_curve, regular_samples, states_at,
                               time_average, tv_histogram)
from hjsim.rng import derive_path_seed

from helpers import make_model, ou_cfg, pure_ou_model, reference_model


def drifting_noiseless_model():
    """The reference model without noise, x drifting to 0.3 from 1: extra
    sample times move none of its events."""
    rate = {"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0}
    return make_model(1, [rate], [0.5], [1.0], {"type": "linear", "rate": 1.0, "intercept": 0.3},
                      {"type": "constant", "value": 0.0}, {"type": "linear_damping", "eta": 0.5},
                      x0=1.0)


@st.composite
def near_event_extras(draw, events, horizon, grid_dt):
    """Extra sample times at, and within 3 engine tolerances eps of, events,
    and pairs of times 1.5 eps or 5e-10 apart; an extra within 1.2 eps of a
    grid time, the horizon or an extra kept before it is left out, so the
    engine records every extra on its own or as an event's post-jump record."""
    eps = 1e-12 * max(1.0, horizon)
    times = [e + draw(st.sampled_from([0.0, 0.5, -0.5, 1.5, -1.5, 3.0, -3.0])) * eps
             for e in draw(st.lists(st.sampled_from(events.tolist()), max_size=8))]
    for t in draw(st.lists(st.floats(0.01, horizon - 0.01), max_size=4)):
        times += [t, t + draw(st.sampled_from([1.5 * eps, 5e-10]))]
    grid = np.append(np.arange(1, int(horizon / grid_dt + eps) + 1) * grid_dt, horizon)
    kept = []
    for t in times:
        if np.abs(grid - t).min() > 1.2 * eps and all(abs(t - k) > 1.2 * eps for k in kept):
            kept.append(t)
    return kept


class TestTimeAverage:
    def test_constant_observable_is_exact(self):
        path = hjsim.simulate_path(reference_model(), 50.0, ou_cfg(0.5), seed=1)
        est = time_average(path, "one", burn_in=5.0)
        assert est.value == 1.0
        assert est.standard_error == 0.0

    def test_ou_second_moment(self):
        # stationary law N(0, 1/2): mean of x^2 is 0.5
        path = hjsim.simulate_path(pure_ou_model(), 2_000.0, ou_cfg(0.05), seed=2)
        est = time_average(path, "x2", burn_in=200.0)
        assert est.batch_count >= 20
        assert abs(est.value - 0.5) <= 3 * est.standard_error

    def test_ou_first_moment(self):
        path = hjsim.simulate_path(pure_ou_model(), 2_000.0, ou_cfg(0.05), seed=3)
        est = time_average(path, "x", burn_in=200.0)
        assert abs(est.value) <= 3 * est.standard_error

    def test_burn_in_must_leave_data(self):
        path = hjsim.simulate_path(reference_model(), 10.0, ou_cfg(0.5), seed=4)
        with pytest.raises(ValueError):
            time_average(path, "x", burn_in=10.0)

    def test_rate_observable_requires_model(self):
        path = hjsim.simulate_path(reference_model(), 10.0, ou_cfg(0.5), seed=5)
        with pytest.raises(ValueError):
            time_average(path, "rate")


class TestRegularSamples:
    def test_grid_extraction(self):
        model = reference_model()
        path = hjsim.simulate_path(model, 20.0, ou_cfg(0.5), seed=6)
        t, x, rs = regular_samples(path, 0.5, burn_in=2.0)
        assert t[0] == pytest.approx(2.0)
        assert t[-1] == pytest.approx(20.0)
        assert np.all(np.diff(t) == pytest.approx(0.5))
        assert len(x) == len(t) and rs.shape == (len(t), 1)

    def test_grid_stops_at_the_horizon(self):
        # eps = 10 here: the count of multiples plus eps passes the horizon
        model = pure_ou_model(rate_level=1e-300)
        path = hjsim.simulate_path(model, 1e13, ou_cfg(1e12), seed=1)
        t, x, rs = regular_samples(path, 1e12)
        assert t.tolist() == [k * 1e12 for k in range(11)]
        assert x.tolist() == path.skeleton_x.tolist()

    def test_grid_too_fine_is_refused_as_the_engine_refuses_it(self):
        model = pure_ou_model(rate_level=1e-300)
        path = hjsim.simulate_path(model, 1000.0, ou_cfg(1.0), seed=1)
        with pytest.raises(hjsim.SimulationLimitError) as engine_error:
            hjsim.simulate_path(model, 1000.0, ou_cfg(1e-12), seed=1)
        with pytest.raises(hjsim.SimulationLimitError) as error:
            regular_samples(path, 1e-12)
        assert str(error.value) == str(engine_error.value)

    @pytest.mark.parametrize("grid_dt", [0.0, -1.0, math.inf, math.nan])
    def test_grid_step_not_finite_and_positive_is_refused(self, grid_dt):
        # the message IntegratorConfig gives, from each reader of the grid
        path = hjsim.simulate_path(pure_ou_model(), 10.0, ou_cfg(0.5), seed=1)
        for read in (lambda: regular_samples(path, grid_dt),
                     lambda: invariant_histogram([path], 10, (-1.0, 1.0), grid_dt),
                     lambda: autocorr_decay(path, "x", [1.0], grid_dt)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == "grid_dt must be a finite positive number"

    def test_states_at_recorded_times(self):
        model = reference_model()
        path = hjsim.simulate_path(model, 10.0, ou_cfg(10.0), seed=7,
                                   sample_at=[1.25, 6.5])
        x, rs = states_at(path, [0.0, 1.25, 6.5])
        assert x[0] == model.initial.x
        with pytest.raises(ValueError):
            states_at(path, [3.33])

    def test_states_at_reads_close_times_apart(self):
        # the engine records 1.0 and 1.0 + 5e-10 apart
        path = hjsim.simulate_path(reference_model(), 3.0, ou_cfg(10.0), seed=7,
                                   sample_at=[1.0, 1.0 + 5e-10, 2.0])
        x, _ = states_at(path, [1.0, 1.0 + 5e-10, 2.0])
        assert x.tolist() == path.skeleton_x[[1, 2, 5]].tolist()
        assert x[0] != x[1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**63), grid_dt=st.floats(0.05, 4.0))
    def test_states_at_reads_each_time_its_own_record(self, data, seed, grid_dt):
        # or, for a time within eps of an event, the event's post-jump record
        model, horizon, cfg = drifting_noiseless_model(), 10.0, ou_cfg(grid_dt)
        eps = 1e-12 * horizon
        events = hjsim.simulate_path(model, horizon, cfg, seed).event_times
        extras = data.draw(near_event_extras(events, horizon, grid_dt))
        path = hjsim.simulate_path(model, horizon, cfg, seed, sample_at=extras)
        assert path.event_times.tolist() == events.tolist()
        times = path.skeleton_times
        x, rs = states_at(path, extras)
        for t, x_t, rs_t in zip(extras, x.tolist(), rs.tolist()):
            own = np.flatnonzero(times == t)[-1:].tolist()
            want = own or [np.flatnonzero(times == e)[-1] for e in events if abs(e - t) <= eps]
            assert [x_t, rs_t] in [[path.skeleton_x[i], path.skeleton_row_sums[i].tolist()]
                                   for i in want], t


class TestInvariantHistogram:
    def _ou_ensemble(self, n=4_000, seed=0):
        # two samples per path spaced 4 time units: effectively independent
        model = pure_ou_model()
        return [hjsim.simulate_path(model, 8.0, ou_cfg(4.0),
                                    derive_path_seed(seed, i)) for i in range(n)]

    def test_masses_normalised(self):
        paths = self._ou_ensemble(n=300)
        est = invariant_histogram(paths, bins=20, compact=(-1, 1),
                                  grid_dt=4.0, burn_in=4.0)
        assert abs(est.bin_masses.sum() - 1.0) <= 1e-9

    def test_ou_matches_gaussian_stationary_law(self):
        paths = self._ou_ensemble()
        xs = np.concatenate([regular_samples(p, 4.0, 4.0)[1] for p in paths])
        sd = math.sqrt(0.5)
        k = 40
        edges = sd * stats.norm.ppf(np.linspace(0, 1, k + 1))
        counts, _ = np.histogram(xs, bins=np.concatenate([[-np.inf], edges[1:-1], [np.inf]]))
        chi2 = ((counts - len(xs) / k) ** 2 / (len(xs) / k)).sum()
        p = 1 - stats.chi2.cdf(chi2, df=k - 1)
        assert p > 0.01

    def test_law_symmetry(self):
        paths = self._ou_ensemble(n=2_000, seed=5)
        xs = np.concatenate([regular_samples(p, 4.0, 4.0)[1] for p in paths])
        frac_pos = np.mean(xs > 0)
        se = math.sqrt(0.25 / len(xs))
        assert abs(frac_pos - 0.5) <= 4 * se

    def test_positivity_on_compact_for_jump_model(self):
        model = reference_model()
        paths = [hjsim.simulate_path(model, 260.0, ou_cfg(0.02),
                                     derive_path_seed(77, i)) for i in range(4)]
        est = invariant_histogram(paths, bins=50, compact=(-1, 1),
                                  grid_dt=0.02, burn_in=26.0)
        assert est.min_mass_on_compact > 0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            invariant_histogram([], bins=10, compact=(-1, 1), grid_dt=0.1)


class TestTvHistogram:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(500, 2))
        assert tv_histogram(a, a, bins=10) == 0.0

    def test_disjoint_samples_give_one(self):
        a = np.zeros((100, 1))
        b = np.ones((100, 1)) * 10
        assert tv_histogram(a, b, bins=5) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(400, 2))
        b = rng.normal(size=(400, 2)) + 0.5
        tv = tv_histogram(a, b, bins=8)
        assert 0.0 <= tv <= 1.0


class TestMixingCurve:
    def test_deterministic_start_separation_at_time_zero(self):
        model = reference_model()
        curve = mixing_curve(model, hjsim.State(-3.0, np.zeros((1, 1))),
                             hjsim.State(3.0, np.array([[3.0]])),
                             times=[0.0, 1.0, 2.0, 4.0], n_paths=200, bins=10,
                             cfg=ou_cfg(4.0), master_seed=1)
        assert curve.tv_estimates[0] == 1.0

    def test_same_start_sits_at_noise_floor(self):
        model = reference_model()
        z = hjsim.State(0.0, np.zeros((1, 1)))
        times = np.array([1.0, 2.0, 3.0])
        blocks = []
        for seed in (10, 11):
            paths = [hjsim.simulate_path(model, 3.0, ou_cfg(3.0),
                                         derive_path_seed(seed, i), sample_at=times)
                     for i in range(400)]
            block = np.empty((400, len(times), 2))
            for i, p in enumerate(paths):
                x, rs = states_at(p, times)
                block[i, :, 0] = x
                block[i, :, 1:] = rs
            blocks.append(block)
        for k in range(len(times)):
            tv = tv_histogram(blocks[0][:, k, :], blocks[1][:, k, :], bins=10)
            floor = tv_histogram(blocks[0][:200, k, :], blocks[0][200:, k, :], bins=10)
            assert tv <= max(3 * floor, 0.3)

    def test_subcritical_model_decays(self):
        model = reference_model()
        curve = mixing_curve(model, hjsim.State(-4.0, np.zeros((1, 1))),
                             hjsim.State(4.0, np.array([[4.0]])),
                             times=np.arange(1.0, 9.0), n_paths=1_500, bins=12,
                             cfg=ou_cfg(8.0), master_seed=3)
        assert curve.fitted_rate > 0
        assert curve.fit_r2 > 0.7
        used = curve.fit_mask
        tau = stats.kendalltau(curve.times[used], curve.tv_estimates[used]).statistic
        assert tau < 0

    def test_validation(self):
        model = reference_model()
        z = hjsim.State(0.0, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            mixing_curve(model, z, z, times=[1.0], n_paths=10, bins=5, cfg=ou_cfg(1.0))
        with pytest.raises(ValueError):
            mixing_curve(model, z, z, times=[1.0, 2.0], n_paths=1, bins=5,
                         cfg=ou_cfg(1.0))

    def test_negative_times_are_refused_before_simulating(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "simulate_ensemble",
                            lambda *args, **kwargs: pytest.fail("simulated"))
        z = hjsim.State(0.0, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="^times must be >= 0 and strictly increasing"):
            mixing_curve(reference_model(), z, z, times=[-1.0, 2.0], n_paths=10, bins=5,
                         cfg=ou_cfg(1.0))

    @pytest.mark.parametrize("times", [[0.0, 1e-300], [1e-170, 2e-170]])
    def test_times_too_small_to_fit_are_refused(self, times):
        # their squares underflow, which left np.polyfit a zero scale to
        # divide by and LAPACK a LinAlgError that named no input
        with pytest.raises(ValueError, match=re.escape(f"the times {times} are too small")):
            mixing_curve(reference_model(), hjsim.State(-3.0, np.zeros((1, 1))),
                         hjsim.State(3.0, np.array([[3.0]])), times=times, n_paths=50,
                         bins=4, cfg=ou_cfg(0.5))

    def test_oversized_state_block_is_refused_before_simulating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated an oversized mixing run")

        monkeypatch.setattr(diagnostics, "simulate_ensemble", refuse)
        z = hjsim.State(0.0, np.zeros((1, 1)))
        # 10**6 paths at 6 times of (x, one row sum): 1.2e7 entries
        with pytest.raises(ValueError, match="state block entries"):
            mixing_curve(reference_model(), z, z, times=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                         n_paths=10**6, bins=5, cfg=ou_cfg(1.0))


class TestAutocorrelation:
    def test_ou_rate_recovered(self):
        path = hjsim.simulate_path(pure_ou_model(), 5_000.0, ou_cfg(0.1), seed=14)
        fit = autocorr_decay(path, "x", lags=np.arange(0.2, 2.2, 0.2),
                             grid_dt=0.1, burn_in=100.0)
        assert fit.rate == pytest.approx(1.0, abs=0.15)
        assert fit.r_squared > 0.95

    def test_reference_model_decays(self):
        path = hjsim.simulate_path(reference_model(), 5_000.0, ou_cfg(0.1), seed=15)
        fit = autocorr_decay(path, "rate", lags=np.arange(0.2, 3.0, 0.2),
                             grid_dt=0.1, burn_in=100.0, model=reference_model())
        assert fit.rate > 0
        assert fit.r_squared > 0.8

    def test_poisson_window_indicator_uncorrelated_at_long_lags(self):
        # indicator of an event in the last unit window, Poisson rate 1:
        # windows 5+ time units apart are independent
        from helpers import poisson_model
        model = poisson_model((1.0,))
        path = hjsim.simulate_path(model, 20_000.0, ou_cfg(1.0), seed=16)
        ev = path.event_times

        def recent_event(t, x, rs):
            return (np.searchsorted(ev, t) - np.searchsorted(ev, t - 1.0) > 0).astype(float)

        fit = autocorr_decay(path, recent_event, lags=[5.0, 8.0, 11.0],
                             grid_dt=1.0, burn_in=10.0)
        assert np.all(np.abs(fit.correlations) < 0.05)
        assert math.isnan(fit.rate)


@pytest.mark.parametrize("call, message", [
    (lambda path: make_observable("bogus"), "unknown observable 'bogus'"),
    # two samples, at 0 and at the horizon, fill one batch
    (lambda path: time_average(path, "x"), "not enough batches for a standard error"),
    (lambda path: invariant_histogram([path], 10, (100.0, 200.0), 1.0),
     "no histogram bin intersects the compact"),
    (lambda path: autocorr_decay(path, "x", [0.5, 1.0], 1.0),
     "series too short for the requested lags"),
])
def test_refusals(call, message):
    path = hjsim.simulate_path(pure_ou_model(rate_level=1e-300), 1.0, ou_cfg(1.0), seed=3)
    with pytest.raises(ValueError) as info:
        call(path)
    assert type(info.value) is ValueError and str(info.value) == message
