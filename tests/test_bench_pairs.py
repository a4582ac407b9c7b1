import importlib.util
import json
import os
import subprocess

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_by_direction_and_no_ties():
    runs = []
    pairs = [(1.0, 0.8, 5.0, 6.0), (1.0, 1.0, 5.0, 5.0), (1.2, 1.4, 4.0, 3.0), (0.9, 0.7, 6.0, 7.0)]
    for pair, (p_wall, c_wall, p_rate, c_rate) in enumerate(pairs):
        for side, wall, rate in (("parent", p_wall, p_rate), ("change", c_wall, c_rate)):
            runs.append({"pair": pair, "side": side, "failed": pair == 2, "attempted": 5,
                         "wall_s": wall, "paths_per_s": rate})
    out = bench_pairs.summarise(runs, {"wall_s": "lower", "paths_per_s": "higher"},
                                {"wall_s": 0.2, "paths_per_s": 0.2})
    assert out["pairs"] == 4
    assert out["failed"] == {"parent": [1, 20], "change": [1, 20]}
    assert out["wall_s"]["change_better_pairs"] == "2/4"        # the tie counts for neither
    assert out["paths_per_s"]["change_better_pairs"] == "2/4"
    assert out["wall_s"]["parent_q1_med_q3"] == pytest.approx([0.975, 1.0, 1.05])
    assert out["wall_s"]["change_over_parent_median"] == pytest.approx(0.9 / 1.0)


def test_summary_flags_a_median_worse_than_its_bound():
    # change/parent medians: wall_s 1.25, peak_rss_mb 1.025, paths_per_s 0.775, events_per_s 0.875
    values = {"wall_s": ([1.0, 1.0], [1.3, 1.2]), "peak_rss_mb": ([60.0, 60.0], [62.0, 61.0]),
              "paths_per_s": ([10.0, 10.0], [7.0, 8.5]), "events_per_s": ([10.0, 10.0], [8.0, 9.5])}
    runs = [{"pair": pair, "side": side, "failed": 0, "attempted": 3,
             **{metric: v[side == "change"][pair] for metric, v in values.items()}}
            for pair in range(2) for side in ("parent", "change")]
    better = {"wall_s": "lower", "peak_rss_mb": "lower", "paths_per_s": "higher",
              "events_per_s": "higher"}
    bounds = {"wall_s": 0.2, "peak_rss_mb": 0.1, "paths_per_s": 0.2, "events_per_s": 0.2}
    out = bench_pairs.summarise(runs, better, bounds)
    assert {m: out[m]["worse_than_bound"] for m in better} == {
        "wall_s": True, "peak_rss_mb": False, "paths_per_s": True, "events_per_s": False}


def test_summary_flags_a_spread_wider_than_the_bound_as_unresolved():
    # the parent's quartile spread over its median: wall_s 0.75 / 1.25, paths_per_s 5 / 10,
    # peak_rss_mb 1.25 / 60.5
    values = {"wall_s": ([0.5, 1.0, 1.5, 2.0], [0.6, 0.9, 1.4, 1.9]),
              "paths_per_s": ([6.0, 8.0, 12.0, 14.0], [15.0, 16.0, 17.0, 18.0]),
              "peak_rss_mb": ([59.5, 60.0, 61.0, 61.5], [70.0, 70.0, 70.0, 70.0])}
    runs = [{"pair": pair, "side": side, "failed": 0, "attempted": 3,
             **{metric: v[side == "change"][pair] for metric, v in values.items()}}
            for pair in range(4) for side in ("parent", "change")]
    better = {"wall_s": "lower", "paths_per_s": "higher", "peak_rss_mb": "lower"}
    out = bench_pairs.summarise(runs, better, {"wall_s": 0.2, "paths_per_s": 0.2,
                                               "peak_rss_mb": 0.1})
    # wall_s spreads too widely to tell; every change run beats every parent run on
    # paths_per_s; peak_rss_mb is narrow, so it is resolved (and worse than its bound)
    assert {m: out[m]["unresolved"] for m in better} == {
        "wall_s": True, "paths_per_s": False, "peak_rss_mb": False}
    assert out["peak_rss_mb"]["worse_than_bound"] is True


_PARENT_WALL = [1.0 + i / 100 for i in range(10)]   # quartile spread 0.045


@pytest.mark.parametrize("change, gain", [
    pytest.param([v - 0.2 for v in _PARENT_WALL], True, id="gain"),
    pytest.param([v - 0.2 for v in _PARENT_WALL[:8]] + [1.2, 1.3], False, id="8-of-10-wins"),
    pytest.param([v - 0.03 for v in _PARENT_WALL], False, id="within-the-parent-spread"),
])
def test_summary_flags_a_gain_by_wins_and_spread(change, gain):
    runs = [{"pair": pair, "side": side, "failed": 0, "attempted": 3,
             "wall_s": (_PARENT_WALL if side == "parent" else change)[pair]}
            for pair in range(10) for side in ("parent", "change")]
    out = bench_pairs.summarise(runs, {"wall_s": "lower"}, {"wall_s": 0.2})
    assert out["wall_s"]["gain"] is gain


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository whose commits ``base``, ``src`` (a change outside the
    benchmark), ``bench`` (under perfbench/) and ``spec`` (BENCHMARK.json)
    follow each other."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src").mkdir()
    commits = {}
    for name, path, text in [("base", "BENCHMARK.json", "{}"), ("src", "src/a.py", "x = 1"),
                             ("bench", "perfbench/run.py", "y = 2"),
                             ("spec", "BENCHMARK.json", '{"run_seconds": 30}')]:
        (tmp_path / path).write_text(text)
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", name)
        commits[name] = _git(tmp_path, "rev-parse", "HEAD")
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    return commits


def test_benchmark_changes_name_the_files_under_perfbench_and_the_spec(repo):
    assert bench_pairs.benchmark_changes(repo["base"], repo["src"]) == []
    assert bench_pairs.benchmark_changes(repo["src"], repo["bench"]) == ["perfbench/run.py"]
    assert bench_pairs.benchmark_changes(repo["bench"], repo["spec"]) == ["BENCHMARK.json"]


def test_refuses_commits_with_different_benchmarks(repo, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "export",
                        lambda *args: pytest.fail("no copy is made for a refused pair"))
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", repo["src"], "--change", repo["bench"], "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "perfbench/run.py" in capsys.readouterr().err


def test_a_failed_run_ends_the_series_and_keeps_the_runs_so_far(repo, tmp_path, monkeypatch,
                                                                capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 30, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}))
    monkeypatch.setattr(bench_pairs, "export", lambda commit, dest: os.makedirs(dest))
    calls = []

    def run_once(copy, workload, seed, seconds):
        calls.append((workload, seed))
        if len(calls) == 4:   # pair 1 runs the change first, so this is its parent
            raise bench_pairs.RunFailed(3, "Traceback ...\nMemoryError\n")
        return {"machine": {"cpu": "test", "commit": "unknown"}, "failed": 0, "attempted": 5,
                "metrics": {"wall_s": {"value": float(len(calls))}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", repo["base"], "--change", repo["src"], "--pairs", "3",
                           "--workloads", "short_paths", "long_path", "--out", str(out),
                           "--workdir", str(tmp_path / "work")])
    assert rc == 1 and len(calls) == 4
    data = json.loads(out.read_text())
    assert data["incomplete"] is True
    failed = data["failed_run"]
    assert (failed["workload"], failed["side"], failed["seed"], failed["exit_code"]) == (
        "short_paths", "parent", 1, 3)
    assert "MemoryError" in failed["stderr_tail"]
    assert [(r["side"], r["seed"]) for r in data["runs"]["short_paths"]] == [
        ("parent", 0), ("change", 0), ("change", 1)]
    assert data["runs"]["long_path"] == []
    # the summary covers the one pair both sides finished
    assert list(data["summary"]) == ["short_paths"]
    assert data["summary"]["short_paths"]["pairs"] == 1
    assert data["summary"]["short_paths"]["wall_s"]["change_over_parent_median"] == 2.0
    assert "exited 3" in capsys.readouterr().err


def test_a_finished_series_is_complete(repo, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 30, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}))
    monkeypatch.setattr(bench_pairs, "export", lambda commit, dest: os.makedirs(dest))
    monkeypatch.setattr(bench_pairs, "run_once", lambda copy, workload, seed, seconds: {
        "machine": {"cpu": "test"}, "failed": 0, "attempted": 5,
        "metrics": {"wall_s": {"value": 1.0}}})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", repo["base"], "--change", repo["src"], "--pairs", "2",
                             "--workloads", "short_paths", "--out", str(out),
                             "--workdir", str(tmp_path / "work")]) == 0
    data = json.loads(out.read_text())
    assert data["incomplete"] is False and data["failed_run"] is None
    assert data["summary"]["short_paths"]["pairs"] == 2


def test_runs_last_the_spec_run_seconds(repo, tmp_path, monkeypatch):
    # a spec of 7 s: every benchmark run is asked for 7 s, and the summary says so
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}))
    monkeypatch.setattr(bench_pairs, "export", lambda commit, dest: os.makedirs(dest))
    real_run, commands = subprocess.run, []
    result = {"failed": 0, "attempted": 5, "metrics": {"wall_s": {"value": 1.0}}}

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, **kwargs)
        commands.append(cmd)
        stdout = json.dumps({"machine": {"cpu": "test"}}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", repo["base"], "--change", repo["src"], "--pairs", "2",
                             "--workloads", "short_paths", "--out", str(out),
                             "--workdir", str(tmp_path / "work")]) == 0
    assert len(commands) == 4
    assert all(cmd[cmd.index("--seconds") + 1] == "7" for cmd in commands)
    assert "--seconds 7 " in json.loads(out.read_text())["benchmark"]


@pytest.mark.parametrize("writers", [(), ("parent",), ("parent", "change")])
def test_records_whether_the_runs_wrote_bytecode(repo, tmp_path, monkeypatch, writers):
    # a run that compiles hjsim leaves src/hjsim/__pycache__ in its copy,
    # wherever PYTHONDONTWRITEBYTECODE or PYTHONPYCACHEPREFIX would send it
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}))
    monkeypatch.setattr(bench_pairs, "export", lambda commit, dest: os.makedirs(dest))
    real_run, parent = subprocess.run, repo["base"][:12]
    result = {"failed": 0, "attempted": 5, "metrics": {"wall_s": {"value": 1.0}}}

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, **kwargs)
        side = "parent" if os.path.basename(kwargs["cwd"]) == parent else "change"
        if side in writers:
            os.makedirs(os.path.join(kwargs["cwd"], "src", "hjsim", "__pycache__"), exist_ok=True)
        stdout = json.dumps({"machine": {"cpu": "test"}}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", repo["base"], "--change", repo["src"], "--pairs", "1",
                             "--workloads", "short_paths", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["writes_bytecode"] == {
        side: side in writers for side in ("parent", "change")}
