"""Model builders shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

import hjsim


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


@st.composite
def simulation_runs(draw):
    """A random M <= 3 model (clipped rates with signed slope or sigmoid
    rates, signed amplitudes, nonzero start) with a horizon, an exact-OU or
    Euler-Maruyama config, optional extra sample times and a seed."""
    m = draw(st.integers(1, 3))

    def entries(lo, hi):
        return draw(st.lists(_finite(lo, hi), min_size=m * m, max_size=m * m))

    em = draw(st.booleans())
    model = make_model(m, draw(st.lists(_RATE_SPECS, min_size=m, max_size=m)),
                       entries(-0.6, 0.6), entries(0.5, 3.0),
                       {"type": "linear", "rate": 1.0, "intercept": 0.0},
                       {"type": "constant", "value": 1.0},
                       {"type": "linear_damping", "eta": 0.5},
                       x0=draw(_finite(-2.0, 2.0)), y0=entries(-1.0, 1.0))
    horizon = draw(_finite(0.5, 4.0))
    grid_dt = horizon / draw(_finite(0.5, 60.0))
    cfg = em_cfg(grid_dt, grid_dt / draw(_finite(0.7, 4.0))) if em else ou_cfg(grid_dt)
    extra = draw(st.one_of(st.none(), st.lists(_finite(-1.0, 5.0), max_size=4)))
    return model, horizon, cfg, extra, draw(st.integers(0, 2**63))
