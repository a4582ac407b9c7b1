import copy
import dataclasses
import io
import math
import pickle
import re
import tracemalloc
from functools import partial
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
from hjsim.model import ConstantDiffusion
from hjsim.rng import RandomStream, derive_path_seed, derive_path_seeds

from helpers import (count_oracle, em_cfg, em_runs, make_model, ou_cfg, poisson_model,
                     pure_ou_model, reference_model, reference_oracle, serial_oracle,
                     simulation_runs, skeleton_x_oracle, supercritical_model, two_component_model)


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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
    def test_a_path_records_the_seed_its_stream_drew_from(self, seed):
        masked = seed & (2 ** 64 - 1)
        path = hjsim.simulate_path(reference_model(), 20.0, ou_cfg(0.5), seed=seed)
        want = hjsim.simulate_path(reference_model(), 20.0, ou_cfg(0.5), seed=masked)
        assert path.seed == masked
        assert path.event_times.tobytes() == want.event_times.tobytes()
        assert path.event_components.tobytes() == want.event_components.tobytes()
        blob = pathio.dumps_binary(path)
        assert pathio.dumps_binary(pathio.read_binary(io.BytesIO(blob))) == blob
        text = pathio.dumps_jsonl(path)
        assert pathio.dumps_jsonl(pathio.read_jsonl(io.BytesIO(text))) == text

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

    def test_coarse_grid_at_a_huge_horizon_is_counted_to_the_horizon(self):
        # eps = 1e8 at horizon 1e20: the multiples of the grid step are
        # counted up to horizon + eps, not as their count plus eps (about 1e8)
        path = hjsim.simulate_path(pure_ou_model(rate_level=1e-300), 1e20, ou_cfg(1e19), seed=1)
        assert path.skeleton_times.tolist() == [k * 1e19 for k in range(11)]
        assert len(_build_sample_times(1e300, 1e299, None)) == 10

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
        # every entry shares the horizon rule; the Euler-Maruyama walk steps
        # no substep over the empty segment
        model = reference_model(x0=1.0)
        for cfg in (ou_cfg(0.01), em_cfg(0.01, 0.003)):
            for path in (hjsim.simulate_path_reference(model, 0.0, cfg, seed=1),
                         hjsim.simulate_path(model, 0.0, cfg, seed=1),
                         *hjsim.simulate_ensemble(model, 0, cfg, 1, 3)):
                assert path.n_events == 0
                assert path.skeleton_times.tolist() == [0.0]
                assert path.skeleton_x.tolist() == [1.0]

    def test_poisson_case_matches_engine_law(self):
        model = poisson_model((1.0, 2.0))
        cfg = ou_cfg(5.0)
        # path i of each sample has the seed derive_path_seed(41 or 42, i)
        eng = np.array([p.n_events for p in hjsim.simulate_ensemble(model, 5.0, cfg, 41, 2_000)])
        ref = np.array([p.n_events for p in engine._simulate_reference(
            model, 5.0, cfg, derive_path_seeds(42, 2_000).tolist())])
        assert stats.ks_2samp(eng, ref).pvalue > 0.01

    def test_candidate_cap_counts_dominating_events(self):
        # this path draws 2 candidates before the horizon
        model, cfg = reference_model(y0=0.0), ou_cfg(2.0)
        hjsim.simulate_path_reference(model, 2.0, cfg, seed=1, max_candidates=2)
        with pytest.raises(hjsim.SimulationLimitError):
            hjsim.simulate_path_reference(model, 2.0, cfg, seed=1, max_candidates=1)

    def test_supercritical_candidate_breaker(self):
        with pytest.raises(hjsim.SimulationLimitError):
            hjsim.simulate_path_reference(reference_model(), 50.0, ou_cfg(1.0),
                                          seed=4, max_candidates=200)

    @settings(max_examples=80, deadline=None)
    @given(simulation_runs(), st.sampled_from([engine._GROUP_BUDGET, 1]), st.integers(1, 6))
    def test_group_equals_the_serial_oracle(self, run, budget, n):
        # a budget of 1 byte runs each seed in a group of its own; the cap
        # keeps fast-growing constructions short, and a run that reaches it
        # trips at the candidate of its first path that does
        model, horizon, cfg, extra, seed = run
        seeds = [derive_path_seed(seed, i) for i in range(n)]
        kwargs = dict(sample_at=extra, max_candidates=200)
        want = []
        with mock.patch.object(engine, "_GROUP_BUDGET", budget):
            for s in seeds:
                try:
                    want.append(pathio.dumps_binary(reference_oracle(model, horizon, cfg, s,
                                                                     **kwargs)))
                except hjsim.SimulationLimitError as exc:
                    with pytest.raises(hjsim.SimulationLimitError,
                                       match=f"^{re.escape(str(exc))}$"):
                        engine._simulate_reference(model, horizon, cfg, seeds, **kwargs)
                    return
            got = engine._simulate_reference(model, horizon, cfg, seeds, **kwargs)
        assert [pathio.dumps_binary(p) for p in got] == want

    def test_candidate_limit_trips_in_a_group_where_the_oracle_does(self):
        # with 5 candidates paths 2 and 4 of these 6 trip, path 2 first in order
        model, cfg = two_component_model(), ou_cfg(0.5)
        seeds = [derive_path_seed(5, i) for i in range(6)]
        for i in (0, 1, 3, 5):
            reference_oracle(model, 2.0, cfg, seeds[i], max_candidates=5)
        # the run of paths 0-5 stops at path 2's sixth candidate, that of 3-5
        # at path 4's, in one group or in a group per path
        for start, first in ((0, 2), (3, 4)):
            with pytest.raises(hjsim.SimulationLimitError) as want:
                reference_oracle(model, 2.0, cfg, seeds[first], max_candidates=5)
            for budget in (engine._GROUP_BUDGET, 1):
                with mock.patch.object(engine, "_GROUP_BUDGET", budget), \
                        pytest.raises(hjsim.SimulationLimitError) as got:
                    engine._simulate_reference(model, 2.0, cfg, seeds[start:], max_candidates=5)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("horizon, n_paths, message", [
        (math.nan, None, "horizon must be >= 0"),
        (-1.0, None, "horizon must be >= 0"),
        (math.nan, 2, "horizon must be >= 0"),
        (-1.0, 2, "horizon must be >= 0"),
        (2.0, 0, "n_paths must be >= 1")])
    def test_bad_inputs_are_refused_before_simulating(self, monkeypatch, horizon, n_paths,
                                                      message):
        # n_paths None: both one-path entries; otherwise an ensemble
        monkeypatch.setattr(engine, "_GroupLog", lambda *args: pytest.fail("simulated"))
        model, cfg = reference_model(), ou_cfg(0.5)
        runs = ([partial(hjsim.simulate_path_reference, max_candidates=1000),
                 hjsim.simulate_path] if n_paths is None
                else [lambda *args: hjsim.simulate_ensemble(*args, n_paths)])
        for run in runs:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run(model, horizon, cfg, 1)


class TestEnsembles:
    def test_parallel_matches_serial(self, monkeypatch):
        model = two_component_model()
        # ten paths give each of the two workers a group that runs in lockstep
        monkeypatch.setattr(engine, "_LOCKSTEP_MIN", 4)
        serial = hjsim.simulate_ensemble(model, 10.0, em_cfg(0.5, 0.1), 99, 10, workers=1)
        parallel = hjsim.simulate_ensemble(model, 10.0, em_cfg(0.5, 0.1), 99, 10, workers=2)
        assert len(serial) == len(parallel) == 10
        assert [pathio.dumps_binary(p) for p in parallel] == [pathio.dumps_binary(p)
                                                              for p in serial]

    @settings(max_examples=60, deadline=None)
    @given(simulation_runs(), st.integers(1, 12), st.integers(2, 8))
    def test_output_does_not_depend_on_worker_count(self, run, n, workers):
        # the worker count sets the group width; an in-process pool maps the
        # groups, and groups of 4 or more paths thin in lockstep
        model, horizon, cfg, extra, seed = run
        with mock.patch.object(engine, "_LOCKSTEP_MIN", 4):
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
    @given(simulation_runs(), st.integers(1, 12), st.integers(1, 12), st.booleans())
    def test_ensemble_equals_serial_paths(self, run, n, width, near_events):
        model, horizon, cfg, extra, seed = run
        if near_events:
            # without noise, sample times do not move the events, so times
            # within eps of each path's events can be set; thinning steps past them
            model = dataclasses.replace(model, coefficients=dataclasses.replace(
                model.coefficients, diffusion=ConstantDiffusion(0.0)))
            events = np.concatenate([hjsim.simulate_path(
                model, horizon, cfg, derive_path_seed(seed, i)).event_times for i in range(n)])
            eps = engine._sample_eps(horizon)
            extra = np.concatenate((events - 0.5 * eps, events + 0.5 * eps)).tolist()
        # a budget for ``width`` live paths splits the ensemble into groups,
        # and groups of 4 or more paths thin in lockstep
        n_samples = len(_build_sample_times(horizon, cfg.grid_dt, extra))
        budget = math.ceil(width * engine._path_bytes(model, horizon, cfg, n_samples))
        with mock.patch.object(engine, "_GROUP_BUDGET", budget), \
                mock.patch.object(engine, "_LOCKSTEP_MIN", 4):
            paths = hjsim.simulate_ensemble(model, horizon, cfg, seed, n, sample_at=extra)
        serial = [hjsim.simulate_path(model, horizon, cfg, derive_path_seed(seed, i),
                                      sample_at=extra) for i in range(n)]
        assert [pathio.dumps_binary(p) for p in paths] == [pathio.dumps_binary(p) for p in serial]

    @settings(max_examples=150, deadline=None)
    @given(simulation_runs(exact_ou=True), st.integers(2, 12), st.integers(1, 4))
    def test_walk_in_lockstep_equals_serial_paths(self, run, n, walk_min):
        # a low _LOCKSTEP_MIN walks these narrow exact-OU groups in lockstep,
        # and hands each path still live below walk_min paths to the scalar loop
        model, horizon, cfg, extra, seed = run
        with mock.patch.object(engine, "_LOCKSTEP_MIN", walk_min):
            paths = hjsim.simulate_ensemble(model, horizon, cfg, seed, n, sample_at=extra)
        serial = [hjsim.simulate_path(model, horizon, cfg, derive_path_seed(seed, i),
                                      sample_at=extra) for i in range(n)]
        assert [pathio.dumps_binary(p) for p in paths] == [pathio.dumps_binary(p) for p in serial]

    def test_circuit_breaker_in_lockstep(self, monkeypatch):
        monkeypatch.setattr(engine, "_LOCKSTEP_MIN", 4)
        with pytest.raises(hjsim.SimulationLimitError) as info:
            hjsim.simulate_ensemble(supercritical_model(), 200.0, em_cfg(0.1), 3, 8,
                                    max_events=500)
        names = [entry.name for entry in info.traceback]
        assert "_simulate_group" in names and "_run_events" not in names

    @pytest.mark.parametrize("scale, message", [(0.0, "finite and positive"),
                                                (math.nan, "finite and positive"),
                                                (0.5, "dominating rate violated")])
    def test_bound_checks_in_lockstep(self, monkeypatch, scale, message):
        # the lockstep loop's envelope of its live paths; the group
        # footprint reads the envelope of the one initial state unscaled
        bounds = RateRuntime.bounds
        monkeypatch.setattr(RateRuntime, "bounds",
                            lambda rt, y: (scale if len(y) > 1 else 1.0) * bounds(rt, y))
        monkeypatch.setattr(engine, "_LOCKSTEP_MIN", 4)
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

    @staticmethod
    def _lockstep_calls(n, horizon):
        """The groups, and the calls of the lockstep loop's envelope (of
        more than one state, unlike the group footprint's), of n paths of
        the benchmark's cli_simulate model (M = 3 sigmoid rates, grid 0.05,
        step 0.005) under a budget that puts them in one group."""
        model = make_model(
            3, [{"type": "sigmoid", "height": 2.0, "steepness": 1.0, "center": 0.0}] * 3,
            [0.5, -0.3, 0.2, 0.2, 0.4, -0.3, -0.3, 0.2, 0.4],
            [1.0, 2.0, 1.5, 1.2, 1.0, 0.8, 2.0, 1.5, 1.0],
            {"type": "bounded_smooth", "amplitude": 2.0, "steepness": 1.0},
            {"type": "smooth_bounded", "lo": 0.5, "hi": 1.5},
            {"type": "linear_damping", "eta": 0.5})
        cfg = em_cfg(0.05, 0.005)
        n_samples = len(_build_sample_times(horizon, cfg.grid_dt, None))
        budget = math.ceil(n * engine._path_bytes(model, horizon, cfg, n_samples))
        with mock.patch.object(engine, "_GROUP_BUDGET", budget), \
                mock.patch.object(engine, "_simulate_group",
                                  wraps=engine._simulate_group) as group, \
                mock.patch.object(RateRuntime, "bounds", autospec=True,
                                  side_effect=RateRuntime.bounds) as bounds:
            hjsim.simulate_ensemble(model, horizon, cfg, 3, n)
        return group.call_count, sum(len(c.args[1]) > 1 for c in bounds.call_args_list)

    def test_long_euler_maruyama_groups_thin_serially(self):
        # the benchmark's cli_simulate run, horizon 200: its 4 paths share a
        # group here, and the live-path count alone keeps them out of lockstep
        assert self._lockstep_calls(4, 200.0) == (1, 0)

    def test_group_of_lockstep_min_paths_thins_in_lockstep(self):
        groups, bounds = self._lockstep_calls(engine._LOCKSTEP_MIN, 5.0)
        assert groups == 1 and bounds > 0

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

    def test_long_euler_maruyama_path_memory(self):
        # one path of 100000 substeps holds each normal's uniform once, from
        # thinning through the skeleton pass (0.8 MB of its 1.8 MB peak)
        model = make_model(1, [{"type": "constant", "level": 0.5}], [0.0], [1.0],
                           {"type": "linear", "rate": 1.0, "intercept": 0.0},
                           {"type": "constant", "value": 1.0},
                           {"type": "linear_damping", "eta": 0.5})
        cfg = em_cfg(100.0, step=0.001)
        hjsim.simulate_path(model, 1.0, cfg, seed=3)
        peak, path = self._peak(lambda: hjsim.simulate_path(model, 100.0, cfg, seed=3))
        assert path.n_events > 0
        assert peak <= 2_500_000


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
        # the first row is the path's start; z holds the normals' uniforms
        assert np.frombuffer(log.rec)[rows.shape[1]:].tobytes() == rows.tobytes()
        assert ndtri(np.frombuffer(log.z)).tobytes() == normals.tobytes()

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
        assert ndtri(np.frombuffer(log.z)).tobytes() == normals.tobytes()
        path = hjsim.simulate_path(model, horizon, cfg, seed, sample_at=extra)
        xs, left = skeleton_x_oracle(path, model, cfg, normals)
        assert path.skeleton_x.tobytes() == xs.tobytes()
        last = horizon - path.skeleton_times[-1]
        assert left == (count_oracle(np.empty(0), model.coefficients, cfg, 0.0, 0, 0, last))

    @settings(max_examples=150, deadline=None)
    @given(simulation_runs(exact_ou=True), st.booleans(), st.sampled_from([0.0, 0.5]),
           st.sampled_from(["samples", "horizon", None]))
    def test_exact_ou_path_equals_the_oracles(self, run, noiseless, offset, on):
        # event rows and normals against the array oracle, and every x of
        # the skeleton against one exact transition per interval.  Without
        # noise no event moves with the sample times; with noise the first
        # does not, being drawn before any normal.  Sample times on these
        # events, or a horizon on or within eps after the last of them
        # (leaving an empty last segment, or one whose record is not kept),
        # reach the walk's records that are not plain intervals
        model, horizon, cfg, extra, seed = run
        if noiseless:
            model = dataclasses.replace(model, coefficients=dataclasses.replace(
                model.coefficients, diffusion=ConstantDiffusion(0.0)))
        events = hjsim.simulate_path(model, horizon, cfg, seed, sample_at=extra).event_times
        events = events.tolist()[:None if noiseless else 1]
        if events and on == "samples":
            extra = list(extra or []) + events
        elif events and on == "horizon":
            horizon = events[-1] + offset * engine._sample_eps(events[-1])
        rows, normals = serial_oracle(model, cfg, horizon, extra, seed)
        log = engine._GroupLog(model, cfg, horizon,
                               _build_sample_times(horizon, cfg.grid_dt, extra), 1)
        engine._run_events(RateRuntime(model), log, 0, RandomStream(seed), 0.0,
                           model.initial.y.ravel().tolist(), 10**6)
        assert np.frombuffer(log.rec)[rows.shape[1]:].tobytes() == rows.tobytes()
        assert ndtri(np.frombuffer(log.z)).tobytes() == normals.tobytes()
        path = hjsim.simulate_path(model, horizon, cfg, seed, sample_at=extra)
        if events and on:
            assert set(events) <= set(path.event_times.tolist())
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

    @settings(max_examples=100, deadline=None)
    @given(simulation_runs(), st.sampled_from([1, 6]))
    def test_segment_blocks_tile_the_normals_buffer(self, run, n):
        # one path thinned on its own, or 6 in lockstep: each segment's
        # normals, counted interval by interval, are the block [z0, z0 + count)
        # of z at its offset, and the blocks cover z without overlapping
        model, horizon, cfg, extra, seed = run
        logs, skeleton = [], engine._skeleton

        def kept(log, *args):
            logs.append((np.frombuffer(log.rec), len(log.z), log))
            return skeleton(log, *args)

        with mock.patch.object(engine, "_skeleton", kept), \
                mock.patch.object(engine, "_LOCKSTEP_MIN", 4):
            hjsim.simulate_ensemble(model, horizon, cfg, seed, n, sample_at=extra)
        m, samples = model.n_components, _build_sample_times(horizon, cfg.grid_dt, extra)
        for rec, n_z, log in logs:
            rows = rec.reshape(-1, 5 + m + m * m)
            rows = rows[np.argsort(rows[:, 0], kind="stable")].tolist()
            blocks = []
            for row, after in zip(rows, rows[1:] + [None]):
                k, t0, lo = int(row[0]), row[1], int(row[3])
                if after is None or after[0] != k:
                    t_stop, z0 = horizon, int(log.z_end[k])
                else:
                    t_stop, z0 = after[1], int(after[4])
                hi = int(log._hi(lo, t_stop))
                count = count_oracle(samples, model.coefficients, cfg, t0, lo, hi, t_stop)
                assert 0 <= z0 <= n_z
                if count:
                    blocks.append((z0, count))
            blocks.sort()
            ends = [0] + [z0 + count for z0, count in blocks]
            assert [z0 for z0, _ in blocks] == ends[:-1]
            assert ends[-1] == n_z

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
        # index and event count are back in the log, and its event rows hold
        # the offsets of their segments' normals, taken in time order; groups
        # of 4 or more paths thin in lockstep
        logs = []
        monkeypatch.setattr(engine, "_LOCKSTEP_MIN", 4)

        class Log(engine._GroupLog):
            def __init__(self, *args):
                super().__init__(*args)
                logs.append(self)

        monkeypatch.setattr(engine, "_GroupLog", Log)
        with pytest.raises(hjsim.SimulationLimitError, match=message) as info:
            run()
        assert "_run_events" in [entry.name for entry in info.traceback]
        log, max_events = logs[0], int(message.split()[1])
        rows = np.frombuffer(log.rec).reshape(-1, 5 + log.m + log.m ** 2)
        mine = rows[rows[:, 0] == k]
        assert log.n_events[k] == len(mine) - 1 == max_events
        assert (log.t_anchor[k], log.lo[k]) == (mine[-1, 1], mine[-1, 3])
        assert f"t = {log.t_anchor[k]:.6g} " in message
        z0 = mine[1:, 4]
        assert (np.diff(z0) > 0).all() and z0[-1] < len(log.z)

    @pytest.mark.parametrize("scale, message", [(0.0, "finite and positive"),
                                                (math.nan, "finite and positive"),
                                                (0.5, "dominating rate violated")])
    def test_bound_checks(self, monkeypatch, scale, message):
        # the loop reads the envelope's terms from the runtime when the group
        # binds it: scale them as the runtime is made
        init = RateRuntime.__init__

        def scaled_init(rt, model):
            init(rt, model)
            rt.f_zero_sum, rt.gammas = scale * rt.f_zero_sum, scale * rt.gammas

        monkeypatch.setattr(RateRuntime, "__init__", scaled_init)
        with pytest.raises(RuntimeError, match=message):
            hjsim.simulate_path(two_component_model(), 5.0, ou_cfg(5.0), seed=3)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("cfg, noise, kind", [(ou_cfg(0.5), 1.0, "ou"),
                                                  (em_cfg(0.5, 0.1), 1.0, "em"),
                                                  (ou_cfg(0.5), 0.0, None)],
                             ids=["ou", "em", "noiseless"])
    def test_models_of_one_m_and_noise_kind_share_one_loop(self, monkeypatch, m, cfg, noise,
                                                           kind):
        # the loop's source names no model value, so two models of the same
        # M and noise kind compile it once, and _compiled's cache holds one
        # loop per pair whatever the models; each group binds its own values
        bound, one_path = [], engine._one_path

        def spy(*key):
            factory = one_path(*key)

            def bind(*values):
                bound.append((key, factory, factory(*values)))
                return bound[-1][2]

            return bind

        monkeypatch.setattr(engine, "_one_path", spy)
        for level, c in ((0.5, 0.2), (1.5, 0.1)):
            model = make_model(m, [{"type": "constant", "level": level}] * m, [c] * (m * m),
                               [1.0] * (m * m), {"type": "linear", "rate": 1.0},
                               {"type": "constant", "value": noise},
                               {"type": "linear_damping", "eta": 0.5})
            assert hjsim.simulate_path(model, 5.0, cfg, seed=3).n_events > 0
        (key_a, factory_a, run_a), (key_b, factory_b, run_b) = bound
        assert key_a == key_b == (m, kind)
        assert factory_a is factory_b and run_a.__code__ is run_b.__code__
        assert run_a.__closure__ != run_b.__closure__


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
