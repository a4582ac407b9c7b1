"""Properties the segment-at-a-time engine relies on.

The engine draws the uniforms of a whole segment's normals with one
``uniforms(k)`` call, so a block of k draws must equal k single draws
wherever the buffer stands, and the skeleton it assembles from blocks must
keep its ordering invariant.  A lockstep group draws from a
:class:`DrawBank`, whose rows must continue the paths' streams draw for
draw.  Every draw is read by ``_words_at``, one C Philox per thread set to
a (key, draw index), which must equal a Philox read from the stream's start
word for word, and threads drawing at once must draw what a serial run
draws.
"""

import copy
import math
import pickle
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

import hjsim
from hjsim import pathio, rng
from hjsim.rng import (_BLOCK, _GOLDEN, _NDTRI_BLOCK, _REFILL_ROWS, DrawBank, RandomStream,
                       _uniforms, _words_at, derive_path_seed, derive_path_seeds)

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
    _interleaved(RandomStream.normals, lambda rng: float(ndtri(rng.uniform())), seed, sizes)


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


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, before=st.integers(0, 2100),
       n=st.integers(2, 70) | st.integers(2, 2 * _BLOCK + 1), from_bank=st.booleans())
@example(seed=1, before=_BLOCK - 24, n=24, from_bank=False)   # up to the buffer's end
@example(seed=1, before=_BLOCK - 24, n=25, from_bank=False)   # one past it
@example(seed=1, before=0, n=_BLOCK + 1, from_bank=True)   # above _BLOCK from an empty buffer
def test_a_block_of_uniforms_keeps_its_values_as_the_stream_reads_on(seed, before, n, from_bank):
    # uniforms(n) may return a view of the stream's buffer, which the engine
    # appends to its normals' array as it is: later draws, across the
    # buffer's end and above a refill's _BLOCK draws, leave it as it was
    def stream():
        s = DrawBank([seed]).stream(0) if from_bank else RandomStream(seed)
        s.uniforms(before)
        return s

    a, b = stream(), stream()
    u = a.uniforms(n)
    z = array("d", [0.5])
    z.frombytes(u.tobytes())
    a.uniforms(2 * _BLOCK + 1)
    assert u.tolist() == [b.uniform() for _ in range(n)]
    assert z.tolist() == [0.5] + u.tolist()
    b.uniforms(2 * _BLOCK + 1)
    assert a.uniforms(3).tobytes() == b.uniforms(3).tobytes()


@pytest.mark.parametrize("copy", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("before", [0, 5, _BLOCK])
def test_a_copied_stream_continues_draw_for_draw(copy, before):
    for s in (RandomStream(7), DrawBank([7, 8]).stream(0)):
        s.uniforms(before)
        twin = copy(s)
        assert twin.seed == s.seed
        assert twin.uniforms(_BLOCK + 9).tolist() == s.uniforms(_BLOCK + 9).tolist()
        assert twin.normals(4).tolist() == s.normals(4).tolist()


# A stream refills 1024 draws at a time (more for a longer read), so reads
# from its start end around the refills at draws 1024, 2048 and 3072 here,
# and between them at the other sizes.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 191, 192, 193, 447, 448, 449, 959, 960,
                               961, 1023, 1024, 1025, 1983, 1984, 1985, 2047, 2048, 2049,
                               3007, 3008, 3009, 3073])
def test_growing_blocks_equal_one_block(n):
    one_block = philox_generator(2024).integers(0, 2**53, size=n, dtype=np.uint64)
    singles = RandomStream(2024)
    assert [singles.uniform() for _ in range(n)] == ((one_block + 0.5) * 2.0**-53).tolist()
    assert RandomStream(2024).uniforms(n).tolist() == ((one_block + 0.5) * 2.0**-53).tolist()


# one uniform for each of a set of rows, or a run of a row's uniforms
_BANK_STEPS = st.lists(st.one_of(
    st.tuples(st.just("uniforms"), st.sets(st.integers(0, 2), min_size=1)),
    st.tuples(st.just("take"), st.integers(0, 2), st.integers(0, 70) | st.integers(0, 2100))),
    max_size=90)


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
        rows = np.array(sorted(step[1]))
        for k, u in zip(rows.tolist(), bank.uniforms(rows).tolist()):
            assert [u] == expect(k, 1)
    for k in range(3):
        # row k keeps k buffered draws before a pair of single draws
        skip = (bank.buf.shape[1] - int(bank.pos[k]) - k) % bank.buf.shape[1]
        assert bank.take(k, skip).tolist() == expect(k, skip)
        for _ in range(2):
            assert bank.uniforms(np.array([k])).tolist() == expect(k, 1)
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


@pytest.mark.parametrize("index", [-1, -2 ** 64])
def test_a_negative_path_index_is_refused(index):
    with pytest.raises(ValueError) as info:
        derive_path_seed(7, index)
    assert type(info.value) is ValueError and str(info.value) == "path_index must be >= 0"


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
        rows = np.array(sorted(step[1]))
        bank.uniforms(rows)
        for k in rows.tolist():
            used[k] += 1
    width = bank.buf.shape[1]
    for k in range(3):
        # row k keeps k buffered draws (after at most one refill) before a
        # pair of single draws, so that a single draw meets its refill
        for _ in range(2):
            skip = (width - int(bank.pos[k]) - k) % width
            bank.take(k, skip)
            used[k] += skip
        for _ in range(2):
            bank.uniforms(np.array([k]))
        used[k] += 2
        skipped = RandomStream(seeds[k])
        skipped.uniforms(used[k])
        assert bank.stream(k).uniforms(n).tolist() == skipped.uniforms(n).tolist()


def test_a_take_to_the_end_of_a_row_is_a_view_until_the_refill():
    # a take that fits the row's buffer is a view of it, which holds the
    # stream's draws until the row's next draw refills the row
    bank = DrawBank([5, 6])
    width = bank.buf.shape[1]
    want = RandomStream(5).uniforms(width + 2).tolist()
    assert bank.uniforms(np.array([0])).tolist() == want[:1]
    view = bank.take(0, width - 1)
    assert np.shares_memory(view, bank.buf) and view.tolist() == want[1:width]
    assert bank.uniforms(np.array([0])).tolist() == [want[width]]
    assert bank.take(0, 1).tolist() == [want[width + 1]]


def test_wide_bank_refills_every_row_from_its_own_draw():
    # more rows than one refill batch, which refill at different draws: a
    # third of the rows draws twice in each round
    seeds = [17 ^ k for k in range(3 * _REFILL_ROWS + 5)]
    bank, rows = DrawBank(seeds), np.arange(len(seeds))
    got = [[] for _ in seeds]
    for i in range(150):
        for part in (rows, rows[rows % 3 == i % 3]):
            for k, u in zip(part.tolist(), bank.uniforms(part).tolist()):
                got[k].append(u)
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


# scipy.special.ndtri is the oracle of hjsim's numpy port of Cephes' ndtri

@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 3 * _NDTRI_BLOCK))
def test_ndtri_is_scipys_on_uniforms(seed, n):
    # across block ends, and in place as the engine calls it
    words = np.random.default_rng(seed).integers(0, 2**64 - 1, n, np.uint64, endpoint=True)
    u = ((words >> 11) + 0.5) * 2.0**-53
    want = ndtri(u).tobytes()
    assert rng.ndtri(u).tobytes() == want
    assert rng.ndtri(u, out=u).tobytes() == want and u.tobytes() == want


def _ulps_around(v: float, k: int = 2000) -> np.ndarray:
    return (np.float64(v).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


def test_ndtri_is_scipys_at_its_branch_edges():
    # the centre's ends at exp(-2) and 1 - exp(-2), the tail's switch of
    # approximation where x = sqrt(-2 log y) crosses 8, at y = exp(-32), the
    # smallest uniform and 1.0
    u = np.concatenate([_ulps_around(math.exp(-2)), _ulps_around(1.0 - math.exp(-2)),
                        _ulps_around(math.exp(-32)), [2.0**-54, 1.0]])
    assert rng.ndtri(u).tobytes() == ndtri(u).tobytes()


def test_uniforms_reach_one_and_its_normal_is_inf():
    # (2**53 - 1) + 0.5 rounds to 2**53, so a word whose top 53 bits are all
    # set is the uniform 1.0: uniforms lie in (0, 1], and ndtri(1.0) = +inf
    u = _uniforms(np.array([2**64 - 1, (2**53 - 1) << 11, 0], dtype=np.uint64))
    assert u.tolist() == [1.0, 1.0, 2.0**-54]
    assert rng.ndtri(u).tolist() == [math.inf, math.inf, float(ndtri(2.0**-54))]
