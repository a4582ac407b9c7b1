import importlib.util
import os

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
    out = bench_pairs.summarise(runs, {"wall_s": "lower", "paths_per_s": "higher"})
    assert out["pairs"] == 4
    assert out["failed"] == {"parent": [1, 20], "change": [1, 20]}
    assert out["wall_s"]["change_better_pairs"] == "2/4"        # the tie counts for neither
    assert out["paths_per_s"]["change_better_pairs"] == "2/4"
    assert out["wall_s"]["parent_q1_med_q3"] == pytest.approx([0.975, 1.0, 1.05])
    assert out["wall_s"]["change_over_parent_median"] == pytest.approx(0.9 / 1.0)
