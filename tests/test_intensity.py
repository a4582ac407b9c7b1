import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hjsim
from hjsim import engine
from hjsim.intensity import RateRuntime

from helpers import make_model, ou_cfg, reference_model, two_component_model


def kernel_runtime(alpha):
    """The rate runtime of a model with decay matrix ``alpha`` (M x M),
    unit amplitudes and clipped affine rates."""
    m = len(alpha)
    return RateRuntime(make_model(m, [{"type": "affine_clipped", "floor": 0.1,
                                       "intercept": 1.0, "slope": 1.0}] * m,
                                  [1.0] * (m * m), np.ravel(alpha).tolist(),
                                  {"type": "linear", "rate": 1.0, "intercept": 0.0},
                                  {"type": "constant", "value": 1.0},
                                  {"type": "constant", "size": 0.0}))


def flowed(rt, y, dt):
    """The memory y (M x M) flowed over dt by ``rt.flow``, as an array."""
    return np.reshape(rt.flow(np.ravel(y).tolist(), dt)[0], np.shape(y))


class TestFlow:
    def test_identity_at_zero(self):
        rt = kernel_runtime([[math.log(2)]])
        assert flowed(rt, [[3.7]], 0.0)[0, 0] == 3.7

    def test_half_life(self):
        rt = kernel_runtime([[math.log(2)]])
        assert flowed(rt, [[1.0]], 1.0)[0, 0] == pytest.approx(0.5)
        assert flowed(rt, flowed(rt, [[1.0]], 1.0), 1.0)[0, 0] == pytest.approx(0.25)

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        rt = kernel_runtime(rng.uniform(0.2, 3.0, size=(2, 2)))
        for _ in range(200):
            y = rng.normal(size=(2, 2)) * 5
            s, t = rng.uniform(0, 10, size=2)
            direct = flowed(rt, y, s + t)
            chained = flowed(rt, flowed(rt, y, s), t)
            assert np.max(np.abs(direct - chained)) <= 1e-12 * max(1.0, np.abs(y).max())

    def test_l1_contraction(self):
        rng = np.random.default_rng(4)
        rt = kernel_runtime(rng.uniform(0.1, 2.0, size=(3, 3)))
        for _ in range(200):
            y = rng.normal(size=(3, 3)) * 10
            t = rng.uniform(0, 20)
            assert np.abs(flowed(rt, y, t)).sum() <= np.abs(y).sum() + 1e-12


def event_paths(model, horizon, grid_dt, seed):
    """Eight paths of one ensemble: they thin in lockstep, then one by one
    once fewer than four are left, so both event updates run."""
    with mock.patch.object(engine, "_LOCKSTEP_MIN", 4):
        return hjsim.simulate_ensemble(model, horizon, ou_cfg(grid_dt), seed, 8)


def event_records(path):
    """Per event: its component and the skeleton's row sums just before
    and just after it (the pre- and post-jump records at its time)."""
    at = np.searchsorted(path.skeleton_times, path.event_times)
    return path.event_components, path.skeleton_row_sums[at], path.skeleton_row_sums[at + 1]


class TestEvents:
    """An event of component j adds column j of the amplitudes to the
    memory; read off the engine's pre- and post-jump records."""

    def test_column_gains_amplitudes(self):
        model = two_component_model()
        for path in event_paths(model, 50.0, 1.0, 3):
            comps, pre, post = event_records(path)
            assert set(comps.tolist()) == {1, 2}
            for j, a, b in zip(comps, pre, post):
                assert b - a == pytest.approx(model.kernel.c[:, j - 1], abs=1e-12)

    def test_additivity(self):
        # unit decays: the row sums at t are the sum of every earlier event's
        # column, each decayed over its age
        model = two_component_model()
        for path in event_paths(model, 20.0, 0.25, 4):
            assert path.n_events > 5
            on_event = np.isin(path.skeleton_times, path.event_times)
            for t, rs in zip(path.skeleton_times[~on_event], path.skeleton_row_sums[~on_event]):
                past = path.event_times < t
                want = (model.kernel.c[:, path.event_components[past] - 1]
                        * np.exp(path.event_times[past] - t)).sum(axis=1)
                assert rs == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_inhibition_subtracts(self):
        for path in event_paths(reference_model(y0=3.0, c=-1.0), 10.0, 1.0, 5):
            _, pre, post = event_records(path)
            assert len(pre) > 0
            assert (post - pre).ravel().tolist() == pytest.approx([-1.0] * len(pre), abs=1e-12)


class TestIntensities:
    def test_constant_rates_ignore_state(self):
        model = make_model(2, [{"type": "constant", "level": 2.0}] * 2,
                           [0.0] * 4, [1.0] * 4,
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        rt = RateRuntime(model)
        assert rt.intensities(np.array([[5.0, -2.0], [0.1, 0.9]])) == pytest.approx([2.0, 2.0])
        assert rt.intensities(np.zeros((2, 2))).sum() == pytest.approx(4.0)

    def test_affine_row_sum(self):
        model = make_model(1, [{"type": "affine_clipped", "floor": 0.1,
                                "intercept": 1.0, "slope": 1.0}],
                           [0.5], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        assert RateRuntime(model).intensities(np.array([[0.5]]))[0] == pytest.approx(1.5)

    def test_row_sums_drive_components(self):
        model = make_model(2, [{"type": "affine_clipped", "floor": 0.1,
                                "intercept": 0.0, "slope": 1.0}] * 2,
                           [0.0] * 4, [1.0] * 4,
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        lam = RateRuntime(model).intensities(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert lam == pytest.approx([3.0, 7.0])
        assert lam.sum() == pytest.approx(10.0)


class TestDominatingRate:
    def affine_runtime(self):
        return RateRuntime(make_model(1, [{"type": "affine_clipped", "floor": 0.1,
                                           "intercept": 1.0, "slope": 1.0}],
                                      [0.5], [1.0],
                                      {"type": "linear", "rate": 1.0, "intercept": 0.0},
                                      {"type": "constant", "value": 1.0},
                                      {"type": "constant", "size": 0.0}))

    def test_zero_state_equals_rates_at_zero(self):
        assert self.affine_runtime().bound([0.0]) == pytest.approx(1.0)

    def test_envelope_dominates_at_negative_memory(self):
        rt = self.affine_runtime()
        assert rt.bound([-2.0]) == pytest.approx(3.0)
        assert rt.intensities(np.array([[-2.0]])).sum() == pytest.approx(0.1)

    def test_bound_dominates_along_flow(self):
        rt = RateRuntime(make_model(2, [{"type": "affine_clipped", "floor": 0.2,
                                         "intercept": 0.5, "slope": 0.8},
                                        {"type": "sigmoid", "height": 2.0,
                                         "steepness": 1.0, "center": 0.0}],
                                    [0.3, -0.2, 0.1, 0.4], [1.0, 2.0, 0.5, 1.5],
                                    {"type": "linear", "rate": 1.0, "intercept": 0.0},
                                    {"type": "constant", "value": 1.0},
                                    {"type": "constant", "size": 0.0}))
        rng = np.random.default_rng(5)
        for _ in range(2_000):
            y = (rng.normal(size=(2, 2)) * 3).ravel().tolist()
            t = rng.uniform(0, 100)
            bound = rt.bound(y)
            y_t, _, cum = rt.flow(y, t)
            assert cum[-1] <= bound * (1 + 1e-12)
            assert rt.intensities(np.reshape(y_t, (2, 2))).sum() <= bound * (1 + 1e-12)
            assert rt.bound(y_t) <= bound * (1 + 1e-12)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_RATE_SPECS = st.one_of(
    st.builds(lambda floor, intercept, slope: {"type": "affine_clipped", "floor": floor,
                                               "intercept": intercept, "slope": slope},
              _finite(1e-3, 2.0), _finite(-3.0, 3.0), _finite(-3.0, 3.0)),
    st.builds(lambda height, steepness, center: {"type": "sigmoid", "height": height,
                                                 "steepness": steepness, "center": center},
              _finite(0.1, 5.0), _finite(0.1, 5.0), _finite(-3.0, 3.0)))


_AFFINE = {"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 0.5}


def _model(rates):
    """An M = len(rates) model with small amplitudes and unit decay."""
    m = len(rates)
    return make_model(m, rates, [0.1 / m] * (m * m), [1.0] * (m * m),
                      {"type": "linear", "rate": 1.0, "intercept": 0.0},
                      {"type": "constant", "value": 1.0}, {"type": "constant", "size": 0.0})


@st.composite
def models_with_memory(draw):
    """Random M <= 9 model (clipped or sigmoid rates, signed amplitudes) and
    memory y: rows on both sides of numpy's eight-term pairwise sum."""
    m = draw(st.integers(1, 9))

    def entries(lo, hi):
        return draw(st.lists(_finite(lo, hi), min_size=m * m, max_size=m * m))

    model = make_model(m, draw(st.lists(_RATE_SPECS, min_size=m, max_size=m)),
                       entries(-2.0, 2.0), entries(0.05, 5.0),
                       {"type": "linear", "rate": 1.0, "intercept": 0.0},
                       {"type": "constant", "value": 1.0},
                       {"type": "constant", "size": 0.0})
    return model, np.reshape(entries(-10.0, 10.0), (m, m))


class TestRateRuntime:
    @settings(max_examples=300, deadline=None)
    @given(models_with_memory(), _finite(0.0, 50.0))
    def test_bound_dominates_total_rate_along_flow(self, case, t):
        model, y = case
        rt = RateRuntime(model)
        y_t = y * np.exp(-rt.alpha * t)
        bound = rt.bound(y.ravel().tolist())
        assert rt.intensities(y_t).sum() <= bound * (1 + 1e-12)
        assert rt.bound(y_t.ravel().tolist()) <= bound * (1 + 1e-12)
        # one state and a batch of states give the same values
        batch = rt.intensities(np.stack([y, y_t]))
        assert np.array_equal(batch, [rt.intensities(y), rt.intensities(y_t)])

    @settings(max_examples=300, deadline=None)
    @given(models_with_memory(), _finite(0.0, 50.0))
    # a sigmoid whose exp(-v) overflows in ``at``: v = 5 * (-200 - 0) < -709
    @example((_model([{"type": "sigmoid", "height": 2.0, "steepness": 5.0, "center": 0.0}]),
              np.array([[-200.0]])), 0.0)
    def test_list_state_rounds_as_arrays(self, case, t):
        # the one-path loop's list form of a memory state against the array code
        model, y = case
        rt = RateRuntime(model)
        flowed = y * np.exp(-rt.alpha * t)
        bound = rt.f_zero_sum + float(rt.gammas @ np.abs(y).sum(axis=1))
        assert np.float64(rt.bound(y.ravel().tolist())).tobytes() == np.float64(bound).tobytes()
        y_list, rs, cum = rt.flow(y.ravel().tolist(), t)
        assert np.array(y_list).tobytes() == flowed.ravel().tobytes()
        assert np.array(rs).tobytes() == flowed.sum(axis=-1).tobytes()
        assert np.array(cum).tobytes() == np.cumsum(rt.intensities(flowed)).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")   # the array oracle's inf
    @settings(max_examples=300, deadline=None)
    @given(_finite(1e-3, 50.0), _finite(0.0, 1e3),
           st.sampled_from([0.0, -0.0, 1e-300, 2.5, 1e300]), st.sampled_from([0.0, 1.0, 1e10]))
    def test_one_component_scalar_forms_round_as_numpy(self, alpha, dt, y, slope):
        # M = 1 takes numpy's one-term envelope dot product and its exp as
        # float expressions: down to underflow, with zero and huge slopes
        rt = RateRuntime(make_model(
            1, [{"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": slope}],
            [1.0], [alpha], {"type": "linear", "rate": 1.0, "intercept": 0.0},
            {"type": "constant", "value": 1.0}, {"type": "constant", "size": 0.0}))
        bound = rt.f_zero_sum + float(rt.gammas @ np.abs([[y]]).sum(axis=1))
        assert np.float64(rt.bound([y])).tobytes() == np.float64(bound).tobytes()
        flowed = y * np.exp(-rt.alpha * dt)
        assert np.float64(rt.flow([y], dt)[0][0]).tobytes() == flowed.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_row_sums_round_as_numpy(self, m, seed):
        # the compiled row sums, below and from eight terms, with -0.0 entries
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-8, 8, (m, m))
        y[rng.random((m, m)) < 0.2] = -0.0
        rt = RateRuntime(_model([_AFFINE] * m))
        assert np.array(rt.flow(y.ravel().tolist(), 0.0)[1]).tobytes() == y.sum(axis=-1).tobytes()
        bound = rt.f_zero_sum + float(rt.gammas @ np.abs(y).sum(axis=1))
        assert np.float64(rt.bound(y.ravel().tolist())).tobytes() == np.float64(bound).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_bounds_equal_bound_on_each_state(self, m, n, seed):
        # the lockstep loop's envelope of n states and the one-path loop's
        # envelope of each, which takes a path over from it: the same bits,
        # below and from eight terms, with -0.0 entries and unequal gammas
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((n, m, m)) * 10.0 ** rng.integers(-8, 9, (n, m, m))
        y[rng.random((n, m, m)) < 0.2] = -0.0
        slopes = rng.uniform(0.1, 3.0, m) * 10.0 ** rng.integers(-3, 4, m)
        rt = RateRuntime(_model([{**_AFFINE, "slope": float(s)} for s in slopes]))
        each = [rt.bound(state.ravel().tolist()) for state in y]
        assert rt.bounds(y).tobytes() == np.array(each).tobytes()

    def test_one_compiled_evaluator_per_m(self):
        # models of one M share the code of bound and flow, whatever their rates
        rt_a = RateRuntime(_model([_AFFINE] * 3))
        rt_b = RateRuntime(_model([{"type": "sigmoid", "height": 1.0, "steepness": 2.0,
                                    "center": 0.5}] * 3))
        assert rt_a.flow.__code__ is rt_b.flow.__code__
        assert rt_a.bound.__code__ is rt_b.bound.__code__
        assert rt_a.flow is not rt_b.flow
