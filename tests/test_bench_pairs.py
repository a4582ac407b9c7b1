import importlib.util
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
