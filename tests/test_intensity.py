import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hjsim
from hjsim.intensity import (RateRuntime, apply_event, dominating_rate, flow_memory,
                             intensity_vector, total_event_rate)
from hjsim.model import KernelMatrix

from helpers import make_model


def one_by_one_kernel(c=0.5, alpha=math.log(2)):
    return KernelMatrix(c=[[c]], alpha=[[alpha]])


class TestFlow:
    def test_identity_at_zero(self):
        k = one_by_one_kernel()
        y = np.array([[3.7]])
        assert flow_memory(k, y, 0.0) == pytest.approx(y)

    def test_half_life(self):
        k = one_by_one_kernel(alpha=math.log(2))
        assert flow_memory(k, np.array([[1.0]]), 1.0)[0, 0] == pytest.approx(0.5)
        two_steps = flow_memory(k, flow_memory(k, np.array([[1.0]]), 1.0), 1.0)
        assert two_steps[0, 0] == pytest.approx(0.25)

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        k = KernelMatrix(c=np.ones((2, 2)),
                         alpha=rng.uniform(0.2, 3.0, size=(2, 2)))
        for _ in range(200):
            y = rng.normal(size=(2, 2)) * 5
            s, t = rng.uniform(0, 10, size=2)
            direct = flow_memory(k, y, s + t)
            chained = flow_memory(k, flow_memory(k, y, s), t)
            assert np.max(np.abs(direct - chained)) <= 1e-12 * max(1.0, np.abs(y).max())

    def test_l1_contraction(self):
        rng = np.random.default_rng(4)
        k = KernelMatrix(c=np.ones((3, 3)), alpha=rng.uniform(0.1, 2.0, size=(3, 3)))
        for _ in range(200):
            y = rng.normal(size=(3, 3)) * 10
            t = rng.uniform(0, 20)
            assert np.abs(flow_memory(k, y, t)).sum() <= np.abs(y).sum() + 1e-12

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            flow_memory(one_by_one_kernel(), np.zeros((1, 1)), -0.1)


class TestEvents:
    def test_column_gains_amplitudes(self):
        k = KernelMatrix(c=[[0.3, 0.2], [0.1, 0.4]], alpha=np.ones((2, 2)))
        y = apply_event(k, np.zeros((2, 2)), 1)
        assert y[:, 0] == pytest.approx([0.3, 0.1])
        assert y[:, 1] == pytest.approx([0.0, 0.0])

    def test_additivity(self):
        k = KernelMatrix(c=[[0.3, 0.2], [0.1, 0.4]], alpha=np.ones((2, 2)))
        y = apply_event(k, apply_event(k, np.zeros((2, 2)), 2), 2)
        assert y[:, 1] == pytest.approx([0.4, 0.8])

    def test_inhibition_subtracts(self):
        k = one_by_one_kernel(c=-1.0)
        assert apply_event(k, np.array([[3.0]]), 1)[0, 0] == 2.0

    def test_component_out_of_range(self):
        k = one_by_one_kernel()
        with pytest.raises(IndexError):
            apply_event(k, np.zeros((1, 1)), 0)
        with pytest.raises(IndexError):
            apply_event(k, np.zeros((1, 1)), 2)


class TestIntensities:
    def test_constant_rates_ignore_state(self):
        model = make_model(2, [{"type": "constant", "level": 2.0}] * 2,
                           [0.0] * 4, [1.0] * 4,
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        lam = intensity_vector(model, np.array([[5.0, -2.0], [0.1, 0.9]]))
        assert lam == pytest.approx([2.0, 2.0])
        assert total_event_rate(model, np.zeros((2, 2))) == pytest.approx(4.0)

    def test_affine_row_sum(self):
        model = make_model(1, [{"type": "affine_clipped", "floor": 0.1,
                                "intercept": 1.0, "slope": 1.0}],
                           [0.5], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        assert intensity_vector(model, np.array([[0.5]]))[0] == pytest.approx(1.5)

    def test_row_sums_drive_components(self):
        model = make_model(2, [{"type": "affine_clipped", "floor": 0.1,
                                "intercept": 0.0, "slope": 1.0}] * 2,
                           [0.0] * 4, [1.0] * 4,
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        lam = intensity_vector(model, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert lam == pytest.approx([3.0, 7.0])
        assert total_event_rate(model, np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)


class TestDominatingRate:
    def affine_model(self):
        return make_model(1, [{"type": "affine_clipped", "floor": 0.1,
                               "intercept": 1.0, "slope": 1.0}],
                          [0.5], [1.0],
                          {"type": "linear", "rate": 1.0, "intercept": 0.0},
                          {"type": "constant", "value": 1.0},
                          {"type": "constant", "size": 0.0})

    def test_zero_state_equals_rates_at_zero(self):
        model = self.affine_model()
        assert dominating_rate(model, np.zeros((1, 1))) == pytest.approx(1.0)

    def test_envelope_dominates_at_negative_memory(self):
        model = self.affine_model()
        y = np.array([[-2.0]])
        assert dominating_rate(model, y) == pytest.approx(3.0)
        assert total_event_rate(model, y) == pytest.approx(0.1)

    def test_bound_dominates_along_flow(self):
        model = make_model(2, [{"type": "affine_clipped", "floor": 0.2,
                                "intercept": 0.5, "slope": 0.8},
                               {"type": "sigmoid", "height": 2.0,
                                "steepness": 1.0, "center": 0.0}],
                           [0.3, -0.2, 0.1, 0.4], [1.0, 2.0, 0.5, 1.5],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        rng = np.random.default_rng(5)
        for _ in range(2_000):
            y = rng.normal(size=(2, 2)) * 3
            t = rng.uniform(0, 100)
            bound = dominating_rate(model, y)
            flowed = flow_memory(model.kernel, y, t)
            assert total_event_rate(model, flowed) <= bound * (1 + 1e-12)
            assert dominating_rate(model, flowed) <= bound * (1 + 1e-12)


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
        flowed = flow_memory(model.kernel, y, t)
        bound = rt.bound(y.ravel().tolist())
        assert rt.intensities(flowed).sum() <= bound * (1 + 1e-12)
        assert rt.bound(flowed.ravel().tolist()) <= bound * (1 + 1e-12)
        # one state and a batch of states give the same values
        batch = rt.intensities(np.stack([y, flowed]))
        assert np.array_equal(batch, [rt.intensities(y), rt.intensities(flowed)])

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

    def test_one_compiled_evaluator_per_m(self):
        # models of one M share the code of bound and flow, whatever their rates
        rt_a = RateRuntime(_model([_AFFINE] * 3))
        rt_b = RateRuntime(_model([{"type": "sigmoid", "height": 1.0, "steepness": 2.0,
                                    "center": 0.5}] * 3))
        assert rt_a.flow.__code__ is rt_b.flow.__code__
        assert rt_a.bound.__code__ is rt_b.bound.__code__
        assert rt_a.flow is not rt_b.flow
