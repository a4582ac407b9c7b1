"""Properties the segment-at-a-time engine relies on.

The engine draws a whole segment's normals with one ``normals(k)`` call, so
a block of k draws must equal k single draws wherever the buffer stands, and
the skeleton it assembles from blocks must keep its ordering invariant.  A
lockstep group draws from a :class:`DrawBank`, whose rows must continue the
paths' streams draw for draw.  Every draw is read by ``_words_at``, one C
Philox per thread set to a (key, draw index), which must equal a Philox read
from the stream's start word for word, and threads drawing at once must draw
what a serial run draws.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

import hjsim
from hjsim import pathio
from hjsim.rng import (_GOLDEN, _REFILL_ROWS, DrawBank, RandomStream, _words_at,
                       derive_path_seed, derive_path_seeds)

from helpers import em_cfg, ou_cfg, philox_generator, reference_model, two_component_model

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


# The first refill draws 64 uniforms and the blocks double up to 1024, so
# refills start at draws 64, 192, 448, 960, 1984 and 3008.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 191, 192, 193, 447, 448, 449, 959, 960,
                               961, 1983, 1984, 1985, 3007, 3008, 3009])
def test_growing_blocks_equal_one_block(n):
    one_block = philox_generator(2024).integers(0, 2**53, size=n, dtype=np.uint64)
    singles = RandomStream(2024)
    assert [singles.uniform() for _ in range(n)] == ((one_block + 0.5) * 2.0**-53).tolist()
    assert RandomStream(2024).uniforms(n).tolist() == ((one_block + 0.5) * 2.0**-53).tolist()


_BANK_STEPS = st.lists(st.one_of(
    st.tuples(st.just("uniforms"), st.sets(st.integers(0, 2), min_size=1),
              st.integers(1, 2), st.booleans()),
    st.tuples(st.just("take"), st.integers(0, 2), st.integers(0, 70) | st.integers(0, 2100))),
    max_size=60)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, steps=_BANK_STEPS, n_rows=st.sampled_from([3, 100, 1100]))
def test_bank_rows_continue_their_streams(seed, steps, n_rows):
    # n_rows sets the bank's width: 1024, 163 and 64 buffered draws per row
    seeds = [seed ^ k for k in range(n_rows)]
    bank = DrawBank(seeds)
    ref = [(philox_generator(s).integers(0, 2**53, size=90_000, dtype=np.uint64) + 0.5) * 2.0**-53
           for s in seeds[:3]]
    used = [0, 0, 0]

    def expect(k, n):
        used[k] += n
        return ref[k][used[k] - n:used[k]].tolist()

    for step in steps:
        if step[0] == "take":
            _, k, n = step
            assert bank.take(k, n).tolist() == expect(k, n)
            continue
        _, rows, n, unread = step
        rows = np.array(sorted(rows))
        got = np.stack(bank.uniforms(rows, n), axis=1)
        for k, row in zip(rows.tolist(), got.tolist()):
            assert row == expect(k, n)
        if unread:
            bank.unread(rows)
            for k in rows.tolist():
                used[k] -= 1
    for k in range(3):
        # row k keeps k buffered draws before a pair of draws
        skip = (bank.buf.shape[1] - int(bank.pos[k]) - k) % bank.buf.shape[1]
        assert bank.take(k, skip).tolist() == expect(k, skip)
        assert np.stack(bank.uniforms(np.array([k]), 2), axis=1)[0].tolist() == expect(k, 2)
        assert ndtri(bank.take(k, 3)).tolist() == RandomStream(seeds[k]).normals(
            used[k] + 3)[used[k]:].tolist()
        used[k] += 3
        assert bank.stream(k).uniforms(50).tolist() == expect(k, 50)


@settings(max_examples=60, deadline=None)
@given(master=SEEDS, n=st.integers(0, 40))
@example(master=0, n=40)
@example(master=2**64 - 1, n=40)
@example(master=2**64 - _GOLDEN, n=3)   # path 0's sum wraps to exactly 0
def test_path_seeds_equal_scalar_form(master, n):
    # (i + 1) * golden wraps past 2**64 from i = 1 on, and so may the sum
    assert derive_path_seeds(master, n).tolist() == [derive_path_seed(master, i)
                                                      for i in range(n)]


# Draw offsets around the 4-word blocks, and far beyond 2**34 draws.
_OFFSETS = st.integers(0, 3000) | st.integers(2**34, 2**62)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(SEEDS, SEEDS, _OFFSETS), min_size=1, max_size=3),
       n=st.integers(0, 1100))
@example(rows=[(0, 0, 0), (2**64 - 1, 2**64 - 1, 1), (5, 7, 2**34 + 3)], n=1100)
@example(rows=[(k, 7 * k, 5 * k) for k in range(40)], n=300)
def test_kernel_equals_numpy_philox(rows, n):
    for k0, k1, d in rows:
        key = np.array([k0, k1], dtype=np.uint64)
        words = _words_at(key, d, n)
        assert words.shape == (n,) and words.tolist() == _words_at((k0, k1), d, n).tolist()
        if d <= 3000:
            want = np.random.Philox(key=key).random_raw(d + n)[d:]
        else:
            ref = np.random.Philox(key=key, counter=d // 4)
            want = ref.random_raw(d % 4 + n)[d % 4:]
        assert words.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, steps=_BANK_STEPS, n_rows=st.sampled_from([3, 100, 1100]),
       n=st.integers(0, 1100))
def test_bank_stream_continues_at_its_draw(seed, steps, n_rows, n):
    seeds = [seed ^ k for k in range(n_rows)]
    bank = DrawBank(seeds)
    used = [0, 0, 0]
    for step in steps:
        if step[0] == "take":
            _, k, m = step
            bank.take(k, m)
            used[k] += m
            continue
        _, rows, m, unread = step
        rows = np.array(sorted(rows))
        bank.uniforms(rows, m)
        for k in rows.tolist():
            used[k] += m - unread
        if unread:
            bank.unread(rows)
    for k in range(3):
        skipped = RandomStream(seeds[k])
        skipped.uniforms(used[k])
        assert bank.stream(k).uniforms(n).tolist() == skipped.uniforms(n).tolist()


def test_wide_bank_refills_every_row_from_its_own_draw():
    # more rows than one refill batch, which refill at different draws
    seeds = [17 ^ k for k in range(3 * _REFILL_ROWS + 5)]
    bank, rows = DrawBank(seeds), np.arange(len(seeds))
    got = [[] for _ in seeds]
    for i in range(150):
        for k, pair in enumerate(np.stack(bank.uniforms(rows, 2), axis=1).tolist()):
            got[k] += pair
        back = rows[rows % 3 == i % 3]
        bank.unread(back)
        for k in back.tolist():
            got[k].pop()
    for k, seed in enumerate(seeds):
        assert got[k] == RandomStream(seed).uniforms(len(got[k])).tolist()


def test_threads_draw_as_a_serial_run():
    # an ensemble and many short streams read their words at once
    model, cfg = two_component_model(), ou_cfg(5.0)

    def ensemble():
        return [pathio.dumps_binary(p)
                for p in hjsim.simulate_ensemble(model, 5.0, cfg, 17, 300)]

    def streams():
        out = []
        for seed in range(200):
            rng = RandomStream(seed)
            out += [rng.uniforms(70).tolist(), rng.normals(300).tolist(), rng.uniform()]
        return out

    want = ensemble(), streams()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often, between any two reads
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(4):
                a, b = pool.submit(ensemble), pool.submit(streams)
                assert (a.result(timeout=120), b.result(timeout=120)) == want
    finally:
        sys.setswitchinterval(interval)
