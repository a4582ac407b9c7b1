import copy
import dataclasses
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri

import hjsim
from hjsim import engine, pathio
from hjsim.engine import _build_sample_times, reference_rate_step
from hjsim.intensity import RateRuntime
from hjsim.rng import RandomStream, derive_path_seed

from helpers import (count_oracle, em_cfg, em_runs, make_model, ou_cfg, poisson_model,
                     reference_model, serial_oracle, simulation_runs, skeleton_x_oracle,
                     supercritical_model, two_component_model)


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: maps the groups in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestPoissonDegeneracy:
    def test_interevent_times_are_exponential(self):
        # constant rates with zero amplitudes: superposition is Poisson(3)
        model = poisson_model((1.0, 2.0))
        path = hjsim.simulate_path(model, 34_000.0, ou_cfg(grid_dt=34_000.0), seed=7)
        gaps = np.diff(np.concatenate([[0.0], path.event_times]))
        assert len(gaps) >= 100_000
        assert stats.kstest(gaps, "expon", args=(0, 1 / 3.0)).pvalue > 0.01

    def test_component_split(self):
        model = poisson_model((1.0, 2.0))
        path = hjsim.simulate_path(model, 20_000.0, ou_cfg(grid_dt=20_000.0), seed=8)
        frac = np.mean(path.event_components == 1)
        se = math.sqrt((1 / 3) * (2 / 3) / path.n_events)
        assert abs(frac - 1 / 3) < 4 * se

    def test_floor_only_rate_single_component(self):
        # floor so high the affine part never exceeds it: constant rate nu
        model = make_model(1, [{"type": "affine_clipped", "floor": 5.0,
                                "intercept": 0.1, "slope": 0.01}],
                           [0.01], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        path = hjsim.simulate_path(model, 4_000.0, ou_cfg(grid_dt=4_000.0), seed=9)
        assert np.all(path.event_components == 1)
        gaps = np.diff(np.concatenate([[0.0], path.event_times]))
        assert stats.kstest(gaps, "expon", args=(0, 1 / 5.0)).pvalue > 0.01

    def test_event_count_mean(self):
        model = poisson_model((1.0, 2.0))
        counts = [hjsim.simulate_path(model, 10.0, ou_cfg(10.0),
                                      derive_path_seed(21, i)).n_events
                  for i in range(1_000)]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 30.0) <= 3 * se


class TestNextEvent:
    def test_first_event_mean_from_rest(self):
        # from y = 0 the intensity stays 1 until the first event; a path
        # has none by horizon 20 with probability e^-20
        paths = hjsim.simulate_ensemble(reference_model(floor=0.01), 20.0, ou_cfg(20.0), 31,
                                        10_000)
        times = np.array([p.event_times[0] for p in paths])
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - 1.0) <= 3 * se

    def test_none_when_horizon_too_close(self):
        paths = hjsim.simulate_ensemble(reference_model(), 1e-9, ou_cfg(0.01), 1, 100)
        assert all(p.n_events == 0 for p in paths)


class TestPathInvariants:
    def test_determinism(self):
        model = two_component_model()
        a = hjsim.simulate_path(model, 50.0, em_cfg(0.1), seed=123)
        b = hjsim.simulate_path(model, 50.0, em_cfg(0.1), seed=123)
        assert np.array_equal(a.event_times, b.event_times)
        assert np.array_equal(a.skeleton_x, b.skeleton_x)
        c = hjsim.simulate_path(model, 50.0, em_cfg(0.1), seed=124)
        assert not np.array_equal(a.skeleton_x, c.skeleton_x)

    def test_no_simultaneous_events_and_range(self):
        model = two_component_model()
        path = hjsim.simulate_path(model, 200.0, em_cfg(0.1), seed=5)
        assert np.all(np.diff(path.event_times) > 0)
        assert np.all(path.event_times > 0)
        assert np.all(path.event_times <= 200.0)
        assert np.all((path.event_components >= 1) & (path.event_components <= 2))

    def test_skeleton_structure(self):
        model = reference_model()
        path = hjsim.simulate_path(model, 20.0, ou_cfg(0.5), seed=6)
        t = path.skeleton_times
        assert t[0] == 0.0 and t[-1] == 20.0
        assert np.all(np.diff(t) >= 0)
        # each event time appears exactly twice (pre and post values)
        for ev in path.event_times:
            assert np.sum(np.isclose(t, ev, rtol=0, atol=1e-9)) == 2

    def test_intensity_positive_at_events(self):
        model = reference_model()
        path = hjsim.simulate_path(model, 100.0, ou_cfg(1.0), seed=10)
        for k, ev in enumerate(path.event_times):
            idx = np.searchsorted(path.skeleton_times, ev)
            pre_rs = path.skeleton_row_sums[idx]  # first record at ev is pre-jump
            lam = model.rates[path.event_components[k] - 1](pre_rs.sum())
            assert lam > 0

    def test_tiny_horizon_empty(self):
        model = reference_model(x0=0.3)
        path = hjsim.simulate_path(model, 1e-9, ou_cfg(0.01), seed=2)
        assert path.n_events == 0
        assert path.skeleton_times[0] == 0.0
        assert path.skeleton_x[0] == 0.3
        assert abs(path.skeleton_x[-1] - 0.3) < 1e-3

    def test_circuit_breaker(self):
        with pytest.raises(hjsim.SimulationLimitError):
            hjsim.simulate_path(supercritical_model(), 200.0, em_cfg(0.1),
                                seed=3, max_events=500)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_paths_are_read_only(self, monkeypatch, workers):
        # paths from worker processes come back pickled
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        model, cfg = reference_model(), ou_cfg(0.5)
        for path in [hjsim.simulate_path(model, 20.0, cfg, seed=6),
                     hjsim.simulate_path_reference(model, 2.0, cfg, seed=6),
                     *hjsim.simulate_ensemble(model, 5.0, cfg, 6, 8, workers=workers)]:
            for name in ("event_times", "event_components", "skeleton_times", "skeleton_x",
                         "skeleton_row_sums"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(path, name)[:1] = 0

    @pytest.mark.parametrize("event_times, skeleton_times, message", [
        ([1.0, 0.5], [0.0, 0.5, 0.5, 1.0, 1.0, 2.0], "strictly increasing"),
        ([0.5, 0.5], [0.0, 0.5, 0.5, 0.5, 0.5, 2.0], "strictly increasing"),
        ([0.5, 1.0], [0.0, 0.5, 0.5, 1.0, 1.0, 0.9], "nondecreasing"),
        # NaN compares false with everything and inf is in order: only a
        # finiteness check sees these
        ([0.5, 1.0], [0.0, 0.5, 0.5, math.nan, 1.0, 0.9], "finite and nondecreasing"),
        ([0.5, 1.0], [0.0, 0.5, 0.5, 1.0, 1.0, math.inf], "finite and nondecreasing")])
    def test_public_constructor_checks_order(self, event_times, skeleton_times, message):
        with pytest.raises(ValueError, match=message):
            hjsim.Path(event_times=event_times, event_components=[1, 1],
                       skeleton_times=skeleton_times, skeleton_x=np.zeros(6),
                       skeleton_row_sums=np.zeros((6, 1)), horizon=2.0, seed=0, model_hash="")

    def test_paths_are_slotted_and_round_trip(self):
        path = hjsim.simulate_ensemble(reference_model(), 5.0, ou_cfg(0.5), 6, 3)[1]
        assert not hasattr(path, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.seed = 1
        for twin in (pickle.loads(pickle.dumps(path)), copy.copy(path)):
            assert type(twin) is hjsim.Path
            assert pathio.dumps_binary(twin) == pathio.dumps_binary(path)

    def test_sample_grid_breaker_allocates_nothing_large(self):
        tracemalloc.start()
        try:
            with pytest.raises(hjsim.SimulationLimitError, match="samples"):
                hjsim.simulate_path(reference_model(), 1e9, ou_cfg(1e-6), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestReferenceConstruction:
    def test_rate_step(self):
        assert reference_rate_step(reference_model()) == pytest.approx(0.5)
        assert reference_rate_step(two_component_model()) == pytest.approx(2 * 1.0 * 0.4)

    def test_zero_horizon_is_empty(self):
        path = hjsim.simulate_path_reference(reference_model(x0=1.0), 0.0,
                                             ou_cfg(0.01), seed=1)
        assert path.n_events == 0
        assert len(path.skeleton_times) == 1

    def test_poisson_case_matches_engine_law(self):
        model = poisson_model((1.0, 2.0))
        cfg = ou_cfg(5.0)
        eng = np.array([hjsim.simulate_path(model, 5.0, cfg,
                                            derive_path_seed(41, i)).n_events
                        for i in range(2_000)])
        ref = np.array([hjsim.simulate_path_reference(model, 5.0, cfg,
                                                      derive_path_seed(42, i)).n_events
                        for i in range(2_000)])
        assert stats.ks_2samp(eng, ref).pvalue > 0.01

    def test_k2_bound_inflates_initial_rate(self):
        # envelope over the ball rate = f(0) sum + gamma_bar * 10 = 11 > 1:
        # the plain run draws 2 candidates, the k2_bound run many more
        model, cfg = reference_model(y0=0.0), ou_cfg(2.0)
        hjsim.simulate_path_reference(model, 2.0, cfg, seed=1, max_candidates=2)
        with pytest.raises(hjsim.SimulationLimitError):
            hjsim.simulate_path_reference(model, 2.0, cfg, seed=1, max_candidates=1)
        with pytest.raises(hjsim.SimulationLimitError):
            hjsim.simulate_path_reference(model, 2.0, cfg, seed=1, k2_bound=10.0,
                                          max_candidates=2)

    def test_supercritical_candidate_breaker(self):
        with pytest.raises(hjsim.SimulationLimitError):
            hjsim.simulate_path_reference(reference_model(), 50.0, ou_cfg(1.0),
                                          seed=4, max_candidates=200)


class TestEnsembles:
    def test_parallel_matches_serial(self):
        model = two_component_model()
        # ten paths give each of the two workers a group that runs in lockstep
        serial = hjsim.simulate_ensemble(model, 10.0, em_cfg(0.5, 0.1), 99, 10, workers=1)
        parallel = hjsim.simulate_ensemble(model, 10.0, em_cfg(0.5, 0.1), 99, 10, workers=2)
        assert len(serial) == len(parallel) == 10
        assert [pathio.dumps_binary(p) for p in parallel] == [pathio.dumps_binary(p)
                                                              for p in serial]

    @settings(max_examples=60, deadline=None)
    @given(simulation_runs(), st.integers(1, 12), st.integers(2, 8))
    def test_output_does_not_depend_on_worker_count(self, run, n, workers):
        # the worker count sets the group width; an in-process pool maps the groups
        model, horizon, cfg, extra, seed = run
        with mock.patch.object(engine, "ProcessPoolExecutor", InProcessPool), \
                mock.patch.object(engine.os, "cpu_count", lambda: 8):
            split = hjsim.simulate_ensemble(model, horizon, cfg, seed, n, workers=workers,
                                            sample_at=extra)
        whole = hjsim.simulate_ensemble(model, horizon, cfg, seed, n, sample_at=extra)
        assert [pathio.dumps_binary(p) for p in split] == [pathio.dumps_binary(p) for p in whole]

    @pytest.mark.parametrize("workers, n_paths, cpus, expected", [
        (64, 3, 8, 3), (64, 3, 2, 2), (2, 6, 8, 2), (64, 3, None, None), (4, 1, 8, None)])
    def test_workers_capped_by_paths_and_cpus(self, monkeypatch, workers, n_paths, cpus,
                                              expected):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(hjsim.engine, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(hjsim.engine.os, "cpu_count", lambda: cpus)
        model = two_component_model()
        paths = hjsim.simulate_ensemble(model, 2.0, ou_cfg(2.0), 5, n_paths, workers=workers)
        assert started == ([] if expected is None else [expected])
        serial = hjsim.simulate_ensemble(model, 2.0, ou_cfg(2.0), 5, n_paths)
        assert [p.event_times.tolist() for p in paths] == [p.event_times.tolist() for p in serial]

    def test_model_hashed_once_per_ensemble(self, monkeypatch):
        calls = []
        digest = hjsim.engine.model_digest
        monkeypatch.setattr(hjsim.engine, "model_digest",
                            lambda model: calls.append(1) or digest(model))
        paths = hjsim.simulate_ensemble(two_component_model(), 2.0, ou_cfg(2.0), 5, 4)
        assert len(calls) == 1
        assert {p.model_hash for p in paths} == {digest(two_component_model())}

    def test_distinct_path_seeds(self):
        seeds = {derive_path_seed(0, i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestLockstep:
    """Ensembles thin their paths in lockstep groups; every path must equal
    the one :func:`simulate_path` makes from the same seed."""

    @settings(max_examples=150, deadline=None)
    @given(simulation_runs(), st.integers(1, 12), st.integers(1, 12))
    def test_ensemble_equals_serial_paths(self, run, n, width):
        model, horizon, cfg, extra, seed = run
        # a budget for ``width`` live paths splits the ensemble into groups
        n_samples = len(_build_sample_times(horizon, cfg.grid_dt, extra))
        budget = math.ceil(width * engine._path_bytes(model, horizon, cfg, n_samples))
        with mock.patch.object(engine, "_GROUP_BUDGET", budget):
            paths = hjsim.simulate_ensemble(model, horizon, cfg, seed, n, sample_at=extra)
        serial = [hjsim.simulate_path(model, horizon, cfg, derive_path_seed(seed, i),
                                      sample_at=extra) for i in range(n)]
        assert [pathio.dumps_binary(p) for p in paths] == [pathio.dumps_binary(p) for p in serial]

    @settings(max_examples=150, deadline=None)
    @given(simulation_runs(exact_ou=True), st.integers(2, 12), st.integers(1, 4))
    def test_walk_in_lockstep_equals_serial_paths(self, run, n, walk_min):
        # a low _WALK_MIN walks these narrow exact-OU groups in lockstep, and
        # hands each path still live below walk_min paths to the scalar loop
        model, horizon, cfg, extra, seed = run
        with mock.patch.object(engine, "_WALK_MIN", walk_min):
            paths = hjsim.simulate_ensemble(model, horizon, cfg, seed, n, sample_at=extra)
        serial = [hjsim.simulate_path(model, horizon, cfg, derive_path_seed(seed, i),
                                      sample_at=extra) for i in range(n)]
        assert [pathio.dumps_binary(p) for p in paths] == [pathio.dumps_binary(p) for p in serial]

    def test_circuit_breaker_in_lockstep(self):
        with pytest.raises(hjsim.SimulationLimitError) as info:
            hjsim.simulate_ensemble(supercritical_model(), 200.0, em_cfg(0.1), 3, 8,
                                    max_events=500)
        names = [entry.name for entry in info.traceback]
        assert "_simulate_group" in names and "_run_events" not in names

    @pytest.mark.parametrize("scale, message", [(0.0, "finite and positive"),
                                                (math.nan, "finite and positive"),
                                                (0.5, "dominating rate violated")])
    def test_bound_checks_in_lockstep(self, monkeypatch, scale, message):
        bounds = RateRuntime.bounds
        monkeypatch.setattr(RateRuntime, "bounds", lambda rt, y: scale * bounds(rt, y))
        with pytest.raises(RuntimeError, match=message):
            hjsim.simulate_ensemble(two_component_model(), 5.0, ou_cfg(5.0), 3, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 400))
    def test_split_keeps_order_and_evens_group_sizes(self, n, width):
        seeds = list(range(100, 100 + n))
        groups = engine._split(seeds, width)
        assert [s for g in groups for s in g] == seeds
        assert len(groups) == math.ceil(n / width)
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= width

    def test_short_paths_run_as_one_group(self):
        # the benchmark's short_paths ensemble: M = 2, exact-OU, horizon 5, no grid
        with mock.patch.object(engine, "_simulate_group", wraps=engine._simulate_group) as group:
            paths = hjsim.simulate_ensemble(two_component_model(), 5.0, ou_cfg(5.0), 3, 1000)
        assert len(paths) == 1000 and group.call_count == 1

    def test_long_euler_maruyama_groups_thin_serially(self):
        # the benchmark's cli_simulate run: M = 3 sigmoid rates, horizon 200,
        # grid 0.05, step 0.005; lockstep would thin these paths slower
        model = make_model(
            3, [{"type": "sigmoid", "height": 2.0, "steepness": 1.0, "center": 0.0}] * 3,
            [0.5, -0.3, 0.2, 0.2, 0.4, -0.3, -0.3, 0.2, 0.4],
            [1.0, 2.0, 1.5, 1.2, 1.0, 0.8, 2.0, 1.5, 1.0],
            {"type": "bounded_smooth", "amplitude": 2.0, "steepness": 1.0},
            {"type": "smooth_bounded", "lo": 0.5, "hi": 1.5},
            {"type": "linear_damping", "eta": 0.5})
        sizes = []

        def group(model, horizon, cfg, sample_times, digest, seeds, **kwargs):
            sizes.append(len(seeds))
            return []

        with mock.patch.object(engine, "_simulate_group", group):
            hjsim.simulate_ensemble(model, 200.0, em_cfg(0.05, 0.005), 3, 4)
        assert sum(sizes) == 4 and max(sizes) < engine._LOCKSTEP_MIN

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_envelope_not_finite_at_the_start_is_reported(self):
        # a row sum that overflows times a zero Lipschitz constant: the
        # group width sees a NaN footprint, and thinning names the envelope
        model = make_model(2, [{"type": "constant", "level": 1.0}] * 2, [0.1] * 4, [1.0] * 4,
                           {"type": "linear", "rate": 1.0}, {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0}, y0=[1e308, 1e308, 0.0, 0.0])
        with pytest.raises(RuntimeError, match="finite and positive, got nan"):
            hjsim.simulate_ensemble(model, 1.0, ou_cfg(1.0), 1, 5)

    def test_integer_horizons_run_as_floats(self):
        model, cfg = two_component_model(), ou_cfg(1.0)
        for run in (lambda h: hjsim.simulate_ensemble(model, h, cfg, 3, 6),
                    lambda h: [hjsim.simulate_path_reference(model, h, cfg, 3)]):
            assert ([pathio.dumps_binary(p) for p in run(5)]
                    == [pathio.dumps_binary(p) for p in run(5.0)])

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            result = run()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_group_memory_without_grid(self):
        model = two_component_model()
        cfg = ou_cfg(5.0)
        hjsim.simulate_ensemble(model, 5.0, cfg, 1, 4)
        peak, _ = self._peak(lambda: hjsim.simulate_ensemble(model, 5.0, cfg, 7, 1000))
        assert peak <= 4_000_000

    def test_group_memory_on_long_grids(self):
        # 64 paths of 20001 samples each; events are rare and nothing is
        # random in x, so the run is mostly skeleton storage.
        model = make_model(1, [{"type": "constant", "level": 0.05}], [0.0], [1.0],
                           {"type": "linear", "rate": 0.0, "intercept": 0.0},
                           {"type": "constant", "value": 0.0},
                           {"type": "constant", "size": 0.0})
        peak, paths = self._peak(lambda: hjsim.simulate_ensemble(model, 20.0, ou_cfg(0.001),
                                                                 7, 64))
        # building the same paths one at a time holds at least their arrays
        serial_floor = sum(getattr(p, k).nbytes for p in paths
                           for k in ("event_times", "event_components", "skeleton_times",
                                     "skeleton_x", "skeleton_row_sums"))
        assert len(paths[0].skeleton_times) >= 20_001
        assert peak <= 1.25 * serial_floor


    def test_group_memory_with_many_normals(self):
        # 64 Euler-Maruyama paths of 10000 substeps and 2 samples each: the
        # normals held between thinning and the skeleton pass set the width
        model = make_model(1, [{"type": "constant", "level": 0.05}], [0.0], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "constant", "size": 0.0})
        cfg = em_cfg(10.0, step=0.001)
        peak, paths = self._peak(lambda: hjsim.simulate_ensemble(model, 10.0, cfg, 7, 64))
        assert len(paths) == 64
        # one group of all 64 paths would hold about 10 MB of normals
        assert peak <= 4_000_000


class TestOnePathLoop:
    """A path thinned on its own runs scalar code that must give the bytes
    of the lockstep loop's array code on a single row."""

    @settings(max_examples=150, deadline=None)
    @given(simulation_runs(), st.lists(st.sampled_from([-0.9, -0.5, 0.0, 0.5, 0.9]), max_size=4))
    def test_rows_and_normals_equal_the_array_oracle(self, run, offsets):
        model, horizon, cfg, extra, seed = run
        # sample times within eps of the first event times (drawn before any
        # normal, so they stay put), which the records must step past
        eps = 1e-12 * max(1.0, horizon)
        firsts = serial_oracle(model, cfg, horizon, extra, seed)[0][:3, 1].tolist()
        extra = list(extra or []) + [t + f * eps for t in firsts for f in offsets]
        rows, normals = serial_oracle(model, cfg, horizon, extra, seed)
        log = engine._GroupLog(model, cfg, horizon,
                               _build_sample_times(horizon, cfg.grid_dt, extra), 1)
        engine._run_events(RateRuntime(model), log, 0, RandomStream(seed), 0.0,
                           model.initial.y.ravel().tolist(), 10**6)
        # the first row is the path's start; zs holds the normals' uniforms
        assert np.frombuffer(log.rec)[rows.shape[1]:].tobytes() == rows.tobytes()
        assert ndtri(log.zs).tobytes() == normals.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(em_runs())
    def test_euler_maruyama_path_equals_the_oracles(self, run):
        # event rows and normals against the array oracle, and every x of
        # the skeleton against one coefficient call per substep
        model, horizon, cfg, extra, seed = run
        rows, normals = serial_oracle(model, cfg, horizon, extra, seed)
        log = engine._GroupLog(model, cfg, horizon,
                               _build_sample_times(horizon, cfg.grid_dt, extra), 1)
        engine._run_events(RateRuntime(model), log, 0, RandomStream(seed), 0.0,
                           model.initial.y.ravel().tolist(), 10**6)
        assert np.frombuffer(log.rec)[rows.shape[1]:].tobytes() == rows.tobytes()
        assert ndtri(log.zs).tobytes() == normals.tobytes()
        path = hjsim.simulate_path(model, horizon, cfg, seed, sample_at=extra)
        xs, left = skeleton_x_oracle(path, model, cfg, normals)
        assert path.skeleton_x.tobytes() == xs.tobytes()
        last = horizon - path.skeleton_times[-1]
        assert left == (count_oracle(np.empty(0), model.coefficients, cfg, 0.0, 0, 0, last))

    @settings(max_examples=300, deadline=None)
    @given(em_runs() | simulation_runs(), st.data())
    def test_segment_count_equals_the_interval_sum(self, run, data):
        # the running sum over the sample grid, against the normals of
        # every interval of a segment counted one by one
        model, horizon, cfg, extra, _ = run
        samples = _build_sample_times(horizon, cfg.grid_dt, extra)
        log = engine._GroupLog(model, cfg, horizon, samples, 1)
        # an anchor and a stop, with their sample indices placed as the
        # thinning loops place them
        t0 = data.draw(st.sampled_from([0.0, *samples.tolist()]) | st.floats(0.0, horizon))
        lo = int(log._hi(0, t0))
        while lo < len(samples) and abs(samples[lo] - t0) <= log.eps:
            lo += 1
        t_stop = data.draw(st.floats(t0, horizon))
        hi = int(log._hi(lo, t_stop))
        assert log._count(t0, lo, hi, t_stop) == count_oracle(samples, model.coefficients, cfg,
                                                             t0, lo, hi, t_stop)

    @pytest.mark.parametrize("run, k, message", [
        # one path thinned on its own from the start
        (lambda: hjsim.simulate_path(supercritical_model(), 200.0, em_cfg(0.1), seed=3,
                                     max_events=500),
         0, "exceeded 500 events before t = 5.95731 "),
        # path 4, which has the most events (52), finishes on its own after
        # the lockstep loop hands it over
        (lambda: hjsim.simulate_ensemble(reference_model(), 20.0, ou_cfg(0.5), 5, 6,
                                         max_events=52),
         4, "exceeded 52 events before t = 19.7612 ")], ids=["one_path", "after_lockstep"])
    def test_event_limit_leaves_the_path_state_in_the_log(self, monkeypatch, run, k, message):
        # the limit trips at the max_events-th event, at the time the path
        # first had max_events events; the path's anchor time, next sample
        # index, event count and normals count are back in the log
        logs = []

        class Log(engine._GroupLog):
            def __init__(self, *args):
                super().__init__(*args)
                logs.append(self)

        monkeypatch.setattr(engine, "_GroupLog", Log)
        with pytest.raises(hjsim.SimulationLimitError, match=message) as info:
            run()
        assert "_run_events" in [entry.name for entry in info.traceback]
        log, max_events = logs[0], int(message.split()[1])
        rows = np.frombuffer(log.rec).reshape(-1, 4 + log.m + log.m ** 2)
        mine = rows[rows[:, 0] == k]
        assert log.n_events[k] == len(mine) - 1 == max_events
        assert (log.t_anchor[k], log.lo[k]) == (mine[-1, 1], mine[-1, 3])
        assert f"t = {log.t_anchor[k]:.6g} " in message
        assert log.n_normals.sum() == len(log.zs) + sum(np.size(v) for v in log.zv)

    @pytest.mark.parametrize("scale, message", [(0.0, "finite and positive"),
                                                (math.nan, "finite and positive"),
                                                (0.5, "dominating rate violated")])
    def test_bound_checks(self, monkeypatch, scale, message):
        # bound is a compiled closure per instance: scale it as it is made
        init = RateRuntime.__init__

        def scaled_init(rt, model):
            init(rt, model)
            bound = rt.bound
            rt.bound = lambda y: scale * bound(y)

        monkeypatch.setattr(RateRuntime, "__init__", scaled_init)
        with pytest.raises(RuntimeError, match=message):
            hjsim.simulate_path(two_component_model(), 5.0, ou_cfg(5.0), seed=3)


class TestSampleAt:
    def test_extra_samples_recorded(self):
        model = reference_model()
        path = hjsim.simulate_path(model, 10.0, ou_cfg(10.0), seed=13,
                                   sample_at=[0.25, 7.3])
        for t in (0.25, 7.3):
            assert np.any(np.isclose(path.skeleton_times, t, rtol=0, atol=1e-9))


def _sample_times_loop(horizon, grid_dt, extra):
    """The list-based grid construction the vectorised one must reproduce."""
    eps = 1e-12 * max(1.0, horizon)
    k_max = int(horizon / grid_dt + eps)
    times = [k * grid_dt for k in range(1, k_max + 1) if k * grid_dt <= horizon + eps]
    if extra is not None:
        times.extend(float(t) for t in extra if 0.0 < float(t) <= horizon + eps)
    times.append(horizon)
    times = sorted(min(t, horizon) for t in times)
    out = [times[0]]
    for t in times[1:]:
        if t - out[-1] > eps:
            out.append(t)
    return np.array(out)


class TestSampleTimes:
    @settings(max_examples=200, deadline=None)
    # whole step counts put the last grid multiple within rounding of the
    # horizon, on either side: 37 * (0.3 / 37) is above 0.3
    @given(horizon=st.floats(1e-15, 50.0),
           steps=st.floats(0.5, 3000.0) | st.integers(1, 3000).map(float),
           extra=st.one_of(st.none(), st.lists(st.floats(-1.0, 60.0), max_size=8)),
           near=st.lists(st.sampled_from([-3, -1, -0.5, 0, 0.5, 1, 3]), max_size=4))
    @example(horizon=0.3, steps=37.0, extra=None, near=[])
    def test_matches_sequential_construction(self, horizon, steps, extra, near):
        grid_dt = horizon / steps
        if extra is not None:
            # extras within a few eps of grid points and of each other
            eps = 1e-12 * max(1.0, horizon)
            extra = extra + [grid_dt + k * eps for k in near] + [horizon + k * eps for k in near]
        want = _sample_times_loop(horizon, grid_dt, extra)
        assert _build_sample_times(horizon, grid_dt, extra).tobytes() == want.tobytes()
        # without extras the grid and the horizon are built without a sort
        want = _sample_times_loop(horizon, grid_dt, None)
        assert _build_sample_times(horizon, grid_dt, None).tobytes() == want.tobytes()

    def test_grid_finer_than_eps_is_deduplicated(self):
        want = _sample_times_loop(1e-13, 1e-15, None)
        assert _build_sample_times(1e-13, 1e-15, None).tobytes() == want.tobytes()
        assert len(want) == 1
