"""Properties the segment-at-a-time engine relies on.

The engine draws a whole segment's normals with one ``normals(k)`` call, so
a block of k draws must equal k single draws wherever the buffer stands, and
the skeleton it assembles from blocks must keep its ordering invariant.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import hjsim
from hjsim.rng import RandomStream

from helpers import em_cfg, ou_cfg, reference_model

SEEDS = st.integers(0, 2**64 - 1)
# Block sizes around and beyond the 1024-draw refill, interleaved with single
# draws, so blocks start after partial use of the buffer and cross refills.
BLOCKS = st.lists(st.integers(0, 2100), min_size=1, max_size=5)


def _interleaved(block, single, seed, sizes):
    a, b = RandomStream(seed), RandomStream(seed)
    for n in sizes:
        assert block(a, n).tolist() == [single(b) for _ in range(n)]
        assert single(a) == single(b)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, sizes=BLOCKS)
def test_uniforms_equal_single_uniform_draws(seed, sizes):
    _interleaved(RandomStream.uniforms, RandomStream.uniform, seed, sizes)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, sizes=BLOCKS)
def test_normals_equal_single_normal_draws(seed, sizes):
    _interleaved(RandomStream.normals, RandomStream.normal, seed, sizes)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, horizon=st.floats(0.5, 10.0), grid_dt=st.floats(0.01, 3.0),
       em_step=st.one_of(st.none(), st.floats(0.01, 0.5)),
       extra=st.lists(st.floats(-1.0, 12.0), max_size=6))
def test_skeleton_times_pair_exactly_at_events(seed, horizon, grid_dt, em_step, extra):
    cfg = ou_cfg(grid_dt) if em_step is None else em_cfg(grid_dt, em_step)
    path = hjsim.simulate_path(reference_model(), horizon, cfg, seed, sample_at=extra)
    t = path.skeleton_times
    gaps = np.diff(t)
    assert np.all(gaps >= 0)
    assert t[0] == 0.0 and t[-1] == horizon
    np.testing.assert_array_equal(t[:-1][gaps == 0], path.event_times)
