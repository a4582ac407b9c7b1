"""Golden digests: the sha256 of ``dumps_binary`` for a fixed matrix of
(model, horizon, integrator config, seed).

The digests pin the event sequences and skeletons byte for byte, so a
refactor of the engine, the diffusion steppers or the random stream must
leave every one of them unchanged.  The matrix covers M = 1, 2, 3; exact-OU
and Euler-Maruyama, with and without noise; output grids finer and coarser
than the typical gap between events, one that misses the horizon and one
beyond it; extra sample times, some within the time tolerance of an event;
the reference construction; ensembles; sigmoid and clipped rates;
inhibitory amplitudes; a power-bounded jump map; and a one-path exact-OU
walk that meets every kind of record.

A digest changes only where a change to float rounding is stated and
checked against the old code as an oracle, its events, skeleton times and
row sums byte for byte and its x within a few ulps.  Two cases were
re-recorded so when tanh became libm's in both compiled forms:
``m3_sigmoid_em_polynomial`` and ``ensemble_m3_polynomial_power_em``, the
bounded-drift Euler-Maruyama runs, whose x moved by at most 1.7 ulps of
max(|x|, 1); the oracle test below keeps their old digests.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest

import hjsim
from hjsim import diffusion, engine, pathio
from hjsim.stability import LyapunovSpec, dynkin_quotient, stability_data

from helpers import (em_cfg, make_model, numpy_tanh_compiled, ou_cfg, reference_model,
                     two_component_model)

LINEAR = {"type": "linear", "rate": 1.0, "intercept": 0.0}
UNIT_NOISE = {"type": "constant", "value": 1.0}
HALVING = {"type": "linear_damping", "eta": 0.5}
POWER = {"type": "power_bounded", "coeff": -0.8, "exponent": 0.5}


def quiet_model():
    """Reference model without noise: the diffusion draws nothing, so extra
    sample times leave the event sequence unchanged."""
    return make_model(
        1, [{"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0}],
        [0.5], [1.0], {"type": "linear", "rate": 0.7, "intercept": 0.2},
        {"type": "constant", "value": 0.0}, HALVING, x0=1.0)


def inhibitory_model():
    """M=2 with inhibitory cross amplitudes; the floor of the clipped rates binds."""
    return make_model(
        2, [{"type": "affine_clipped", "floor": 0.05, "intercept": 0.8, "slope": 1.0}] * 2,
        [0.4, -0.6, -0.5, 0.3], [1.0, 0.5, 0.8, 1.2],
        LINEAR, UNIT_NOISE, HALVING, x0=-1.0, y0=[0.2, -0.3, 0.1, 0.0])


def sigmoid_model(polynomial, jump=HALVING):
    """M=3 sigmoid rates with mixed-sign amplitudes; ``polynomial`` selects
    a bounded drift and state-dependent noise (Euler-Maruyama only)."""
    drift = ({"type": "bounded_smooth", "amplitude": 2.0, "steepness": 1.0}
             if polynomial else LINEAR)
    noise = {"type": "smooth_bounded", "lo": 0.5, "hi": 1.5} if polynomial else UNIT_NOISE
    return make_model(
        3, [{"type": "sigmoid", "height": 2.0, "steepness": 1.0, "center": 0.0}] * 3,
        [0.5, -0.3, 0.2, 0.2, 0.4, -0.3, -0.3, 0.2, 0.4],
        [1.0, 2.0, 1.5, 1.2, 1.0, 0.8, 2.0, 1.5, 1.0], drift, noise, jump)


def drifting_model():
    """Noiseless M=1 model whose drift does not revert (rate 0, intercept
    0.3), so every exact-OU interval has its own offset, with a power-bounded
    jump map."""
    return make_model(
        1, [{"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0}],
        [0.5], [1.0], {"type": "linear", "rate": 0.0, "intercept": 0.3},
        {"type": "constant", "value": 0.0}, POWER, x0=1.0)


def near_events(model, horizon, cfg, seed):
    """Extra sample times at, and just inside or outside the time tolerance
    of, events of the path without extras (noiseless models only)."""
    e = hjsim.simulate_path(model, horizon, cfg, seed).event_times
    eps = 1e-12 * max(1.0, horizon)
    return [e[0], e[1] + 0.5 * eps, e[2] - 0.5 * eps, e[3] + 3 * eps, e[4] - 3 * eps,
            0.5 * (e[5] + e[6]), horizon - 0.5 * eps]


def path(model, horizon, cfg, seed, **kwargs):
    return lambda: [hjsim.simulate_path(model(), horizon, cfg, seed, **kwargs)]


def with_extras(model, horizon, cfg, seed):
    return lambda: [hjsim.simulate_path(model(), horizon, cfg, seed,
                                        sample_at=near_events(model(), horizon, cfg, seed))]


def reference(model, horizon, cfg, seed, **kwargs):
    return lambda: [hjsim.simulate_path_reference(model(), horizon, cfg, seed, **kwargs)]


def ensemble(model, horizon, cfg, seed, n, **kwargs):
    """An ensemble whose groups of 4 or more paths thin in lockstep."""
    def run():
        with mock.patch.object(engine, "_LOCKSTEP_MIN", 4):
            return hjsim.simulate_ensemble(model(), horizon, cfg, seed, n, **kwargs)
    return run


def ensemble_in_groups(model, horizon, cfg, seed, n, width):
    """An ensemble run under a budget for ``width`` live paths, so that it
    spans ceil(n / width) lockstep groups, each thinned in lockstep while 4
    or more of its paths are live; a path is the same whatever its group."""
    def run():
        spec = model()
        n_samples = len(engine._build_sample_times(horizon, cfg.grid_dt, None))
        budget = math.ceil(width * engine._path_bytes(spec, horizon, cfg, n_samples))
        with mock.patch.object(engine, "_GROUP_BUDGET", budget), \
                mock.patch.object(engine, "_LOCKSTEP_MIN", 4), \
                mock.patch.object(engine, "_simulate_group", wraps=engine._simulate_group) as group:
            paths = hjsim.simulate_ensemble(spec, horizon, cfg, seed, n)
        assert group.call_count == -(-n // width)
        return paths
    return run


CASES = {
    "m1_ou_fine": path(reference_model, 20.0, ou_cfg(0.01), 11),
    "m1_ou_coarse": path(reference_model, 20.0, ou_cfg(5.0), 12),
    "m1_ou_offgrid_start": path(lambda: reference_model(x0=1.5, y0=0.8), 20.0, ou_cfg(0.37), 13),
    "m1_ou_grid_beyond_horizon": path(reference_model, 5.0, ou_cfg(7.0), 19),
    "m1_em_fine": path(reference_model, 20.0, em_cfg(0.01, 0.003), 14),
    "m1_em_coarse": path(reference_model, 20.0, em_cfg(0.37, 0.05), 15),
    "m1_em_step_above_grid": path(reference_model, 10.0, em_cfg(0.01, 0.05), 16),
    "m1_sigma0_ou": path(quiet_model, 20.0, ou_cfg(0.1), 17),
    "m1_sigma0_em": path(quiet_model, 20.0, em_cfg(0.1, 0.03), 18),
    "m1_sample_at": path(reference_model, 20.0, ou_cfg(0.5), 29, sample_at=[
        0.123, 3.3333, 7.0, 7.0 + 1e-13, -1.0, 25.0, 20.0, 20.0 - 1e-14]),
    "m1_em_sample_at": path(reference_model, 20.0, em_cfg(0.37, 0.05), 36,
                            sample_at=[1.0, 2.5, 11.11]),
    "m1_near_events_ou": with_extras(quiet_model, 20.0, ou_cfg(0.5), 30),
    "m1_near_events_em": with_extras(quiet_model, 20.0, em_cfg(0.5, 0.07), 37),
    # One path's scalar exact-OU walk over every kind of record: plain
    # intervals, intervals ending in a jump, sample times on events, and
    # (at a zero horizon) an empty segment.
    "m1_drift_power_near_events_ou": with_extras(drifting_model, 20.0, ou_cfg(0.01), 43),
    "reference_zero_horizon_ou": reference(drifting_model, 0.0, ou_cfg(0.01), 44),
    "m2_ou": path(two_component_model, 20.0, ou_cfg(0.05), 21),
    "m2_em": path(two_component_model, 20.0, em_cfg(0.2, 0.03), 22),
    "m2_inhibitory_ou": path(inhibitory_model, 30.0, ou_cfg(0.1), 24),
    "m2_inhibitory_em": path(inhibitory_model, 30.0, em_cfg(0.25, 0.1), 25),
    "m3_sigmoid_em_polynomial": path(lambda: sigmoid_model(True), 20.0, em_cfg(0.05, 0.01), 26),
    "m3_sigmoid_ou": path(lambda: sigmoid_model(False), 20.0, ou_cfg(0.2), 27),
    "m3_sigmoid_em_coarse": path(lambda: sigmoid_model(False), 20.0, em_cfg(3.0, 0.07), 28),
    "reference_m1_ou": reference(reference_model, 3.0, ou_cfg(0.1), 31),
    "reference_m2_em": reference(two_component_model, 2.0, em_cfg(0.1, 0.03), 32,
                                 sample_at=[0.55]),
    "reference_inhibitory_ou": reference(inhibitory_model, 2.0, ou_cfg(0.25), 33),
    "ensemble_m2_ou": ensemble(two_component_model, 5.0, ou_cfg(5.0), 34, 5),
    "ensemble_m1_em_sample_at": ensemble(reference_model, 5.0, em_cfg(0.1, 0.02), 35, 3,
                                         sample_at=[1.23]),
    # Ensembles large enough to advance their paths in lockstep groups, to
    # span more than one group (under a budget for 128 paths) and to finish
    # their last paths serially.
    "ensemble_m2_ou_groups": ensemble_in_groups(two_component_model, 5.0, ou_cfg(5.0), 38,
                                                300, width=128),
    "ensemble_inhibitory_em_sample_at": ensemble(inhibitory_model, 10.0, em_cfg(0.004, 0.002),
                                                 39, 16, sample_at=[0.5, 3.3, 7.77]),
    "ensemble_m3_sigmoid_ou": ensemble(lambda: sigmoid_model(False), 10.0, ou_cfg(0.5), 40, 9),
    # Lockstep with state-dependent coefficients and a nonlinear jump map.
    "ensemble_m3_polynomial_power_em": ensemble(lambda: sigmoid_model(True, POWER), 10.0,
                                                em_cfg(0.1, 0.02), 42, 8),
}

# The Monte Carlo generator check continues candidate-bearing paths with the
# engine's thinning loop; a long dt makes most of its paths take that branch.
GENERATOR_CASES = {
    "dynkin_m2_ou": (two_component_model, ou_cfg(0.1)),
    "dynkin_m2_em": (two_component_model, em_cfg(0.1, 0.03)),
    "dynkin_inhibitory_ou": (inhibitory_model, ou_cfg(0.1)),
}

GOLDEN = {
    "dynkin_inhibitory_ou": "dcb7de0bedbf8ebbf156bb7ce8f83a35cb753c1fefb7ec1ee131ff7988e69aea",
    "dynkin_m2_em": "492777eb3eb274567f9a0c17940ebbd1803412ded0016e7b484c9fb8214f4e56",
    "dynkin_m2_ou": "f4d570f65b5be48948197f0ffe0620846909f69a7ed274438b3fe39f0999c7ae",
    "ensemble_inhibitory_em_sample_at":
        "746de6e33ff806f78adfa0b94b335e348bd5fff1f7b32a1e14837e10ae8f265d",
    "ensemble_m1_em_sample_at": "2eb9d5bac8746e87c92482a710a66a92ab94d59131fc6ff14b1dfe68a58865d0",
    "ensemble_m2_ou": "46c4e39102db26e405f51e5e8b2c43908f2d92255746778fe1eaca7e32cd58d6",
    "ensemble_m2_ou_groups": "0bfb37b3e82ba27519ebb33d86ebe6271b917b26e6b3d0edac0020abd44dad72",
    "ensemble_m3_polynomial_power_em":
        "d838d0c965f3090b0b1a7a11ce7f577468c333e62281db74aefac48c55109219",
    "ensemble_m3_sigmoid_ou": "4534963d7511b52b3b4df317e9095449f4e807ed709648fa4aefb1d181416754",
    "m1_drift_power_near_events_ou":
        "ea5429bcd917842169fc22a5ce86d80dea9f51620de80ee27cc1f5fd40e8a5cf",
    "m1_em_coarse": "5284dceef6ef143e6e1f268bb1d91a2b904cefbf466f7ac1b759ba2ee1a7cff4",
    "m1_em_fine": "14c12ea2db7075f1567ee8584d1d1a6d32d5de5ac4556a933454fd7605f6ecf3",
    "m1_em_sample_at": "a8f1eacfc0a300fd97d1af2c7132402550940b22873ec2df6498ba18f598c2c5",
    "m1_em_step_above_grid": "5602b22614c65a412bb48000d67828ee6191ca20e652941e7af378418e3558ef",
    "m1_near_events_em": "bb2c62c119dd1d92a7adc7ab58b6295bf58c02907e9cd7df66f14fee1be35fde",
    "m1_near_events_ou": "31395744051cad21363d350c52c6245717674575b7e12817075c7423b297ce89",
    "m1_ou_coarse": "05e103a4cd978b033eb830fc0208f584567c5b05829384a7cfa7c7b4142e48e0",
    "m1_ou_fine": "1aca4271e3809721eb50ec94a01bff2c67b339a856d9ba9c71ea7d9ee4e1158c",
    "m1_ou_grid_beyond_horizon": "0243856fa250d63730bcc50a42693ba7905a031bc5962467448b805c6cfc423e",
    "m1_ou_offgrid_start": "654ac852ab51d063495c7cc3b15022668372cd6153e2f9626882e80118e68af0",
    "m1_sample_at": "29a699e51616f7324a7a1c0494c670b7e50b428bfeef87ce562cc5c449a9e8bf",
    "m1_sigma0_em": "36cdd97a9c6529b75e32e2ffbf52c34e3175a40f1101c2554604867b2819ea69",
    "m1_sigma0_ou": "acc4aeb3c2ceab6aa870cb7e7c225f77824ee9a591e9529749b6fd650f08c77e",
    "m2_em": "2d1a85ea8fd980ef3f478bcf89b97c4ae7059efffdf5993c8c18213de0f37d1b",
    "m2_inhibitory_em": "54b7fa330bb0340e2d2ec5c0754579f4a4bab7ecaad681efcec9ff0adca590b4",
    "m2_inhibitory_ou": "73053b0231ad1c5a546b746976fd3b3ccabff73fc07e52b5be79602fe42b3d19",
    "m2_ou": "7b8850f46a43a49ffd971306b0879c342b3e21683f77befccf1beb7650174785",
    "m3_sigmoid_em_coarse": "492098d1cc1005bfd49f6bca52200bf34cc790917ed6de977ee4de4c7cc3e60f",
    "m3_sigmoid_em_polynomial": "8233713de2acff670d7b4bd9d13164ad66e5670fe07fa1129db1262cb8193a49",
    "m3_sigmoid_ou": "67532693a4b7140f3c2422f56300a2e2f9b07390c3a687008c02de855a7ec774",
    "reference_inhibitory_ou": "f0fa656d3e7ec4095fe96a4e6abd3cfec82b1cf3db2a2301c8deee593ce11c93",
    "reference_m1_ou": "9d7ea65938d4866610445a747583663befa7825df68cd0984d01e6daea4981a2",
    "reference_m2_em": "ee5593c9ca30d2a99de72bc6efc04950d59e088d9dc2243c21f374adaef31b8a",
    "reference_zero_horizon_ou":
        "c2449cc1bd327d23feef5e0c076b1898049b99373b1eaa4338ddefbdf929a787",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    h = hashlib.sha256()
    for p in CASES[name]():
        h.update(pathio.dumps_binary(p))
    assert h.hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generator_check_digest(name):
    build, cfg = GENERATOR_CASES[name]
    model = build()
    m = model.n_components
    z = hjsim.State(0.3, np.linspace(-0.4, 0.6, m * m).reshape(m, m))
    est = dynkin_quotient(model, LyapunovSpec("exponential"), stability_data(model), z,
                          0.5, 400, seed=41, cfg=cfg)
    assert hashlib.sha256(np.array(est).tobytes()).hexdigest() == GOLDEN[name]


# The old code's oracle for the bounded-drift Euler-Maruyama cases: each
# run with the digest it gave while tanh was numpy's, and the benchmark's
# M = 3 polynomial model (MIXED3) over a long horizon.
NUMPY_TANH_CASES = {
    "ensemble_m3_polynomial_power_em": (
        CASES["ensemble_m3_polynomial_power_em"],
        "39fed770dab5511d5f63e906c39eee5ef76dd300defecd4e75584f4c84c59eec"),
    "m3_sigmoid_em_polynomial": (
        CASES["m3_sigmoid_em_polynomial"],
        "aa1e31c12c8e827bf4674fce9dc15a1d156bb10268058dd06d4a63115734afec"),
    "mixed3_em_long": (path(lambda: sigmoid_model(True), 500.0, em_cfg(0.05, 0.005), 45), None),
}


@pytest.mark.parametrize("name", sorted(NUMPY_TANH_CASES))
def test_libm_tanh_moves_only_bounded_drift_x_and_at_rounding_level(name):
    # with numpy's tanh the events, skeleton times and row sums are the
    # same bytes, and every x is within 64 ulps of max(|x|, 1) of the
    # oracle's
    run, digest = NUMPY_TANH_CASES[name]
    new = run()
    with mock.patch.object(diffusion, "_compiled", numpy_tanh_compiled):
        old = run()
    if digest:
        h = hashlib.sha256()
        for p in old:
            h.update(pathio.dumps_binary(p))
        assert h.hexdigest() == digest
    assert len(new) == len(old)
    for p, q in zip(new, old):
        for a in ("event_times", "event_components", "skeleton_times", "skeleton_row_sums"):
            assert getattr(p, a).tobytes() == getattr(q, a).tobytes()
        ulps = np.abs(p.skeleton_x - q.skeleton_x) / np.spacing(np.maximum(abs(q.skeleton_x), 1.0))
        assert ulps.max() <= 64
    assert any(p.skeleton_x.tobytes() != q.skeleton_x.tobytes() for p, q in zip(new, old))


def test_matrix_is_fully_pinned():
    assert sorted(GOLDEN) == sorted([*CASES, *GENERATOR_CASES])
