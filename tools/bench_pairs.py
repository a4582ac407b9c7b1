"""Run the benchmark on two commits in alternating pairs and summarise them.

    python3 tools/bench_pairs.py --parent d5a3a1d --change HEAD --pairs 10 \
        --workloads cli_simulate short_paths long_path --out BENCH_12.json

Each side runs ``perfbench/run.py --trace 0`` from a ``git archive`` copy of
its commit, so neither sees the other's files or this checkout's working
tree.  Every run lasts the benchmark's 30 s, and pair i uses ``--seed i``;
the parent runs first in even pairs and the change first in odd pairs.  The output file
holds both commits, the machine, each run's end-to-end medians, and per
metric each side's quartiles over its runs, the change's median over the
parent's, the number of pairs in which the change is better (ties count
for neither side), and whether the change's median is worse than the
parent's by more than the metric's bound in ``BENCHMARK.json``.  The
benchmark's raw repetitions stay in each copy's ``.bench_out/`` and are not
kept.  The two commits must hold the same benchmark: the tool refuses to run
when they differ under ``perfbench/`` or in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 30.0   # the run length BENCHMARK.json sets
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the commit measured against")
    p.add_argument("--change", required=True, help="the commit measured")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=["cli_simulate", "short_paths", "long_path"])
    p.add_argument("--out", required=True, help="the summary file to write")
    p.add_argument("--workdir", help="where the copies go (default: a temporary directory)")
    return p.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def benchmark_changes(parent: str, change: str) -> list[str]:
    """The files of the benchmark itself that differ between two commits."""
    return git("diff", "--name-only", parent, change, "--", *BENCHMARK_FILES).splitlines()


def export(commit: str, dest: str) -> None:
    """The files of ``commit`` in ``dest``, as ``git archive`` gives them."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(copy: str, workload: str, seed: int) -> dict:
    """One benchmark run in ``copy``: its machine record and result line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(SECONDS), "--trace", "0"],
                          cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {copy} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"machine": json.loads(lines[-2])["machine"], **json.loads(lines[-1])}


def summarise(runs: list[dict], better: dict, bounds: dict) -> dict:
    """Quartiles per side, the median ratio, the pairs the change wins and
    whether the change's median is worse than the parent's by more than the
    metric's bound, a fraction of the parent's median."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {"pairs": len(sides["change"]),
           "failed": {side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
                      for side, rs in sides.items()}}
    for metric, direction in better.items():
        values = {side: np.array([r[metric] for r in rs]) for side, rs in sides.items()}
        parent, change = values["parent"], values["change"]
        wins = (change < parent) if direction == "lower" else (change > parent)
        ratio = float(np.median(change) / np.median(parent))
        worse = ratio - 1.0 if direction == "lower" else 1.0 - ratio
        out[metric] = {
            "parent_q1_med_q3": np.percentile(parent, [25, 50, 75]).tolist(),
            "change_q1_med_q3": np.percentile(change, [25, 50, 75]).tolist(),
            "change_over_parent_median": ratio,
            "change_better_pairs": f"{int(wins.sum())}/{len(wins)}",
            "worse_than_bound": bool(worse > bounds[metric]),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    changed = benchmark_changes(commits["parent"], commits["change"])
    if changed:
        print(f"the commits hold different benchmarks, so their runs cannot be compared: "
              f"{', '.join(changed)} differ", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")
    copies = {side: os.path.join(workdir, sha[:12]) for side, sha in commits.items()}
    for side, copy in copies.items():
        shutil.rmtree(copy, ignore_errors=True)
        export(commits[side], copy)
    runs, machine = {}, None
    try:
        for workload in args.workloads:
            runs[workload] = []
            for seed in range(args.pairs):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(copies[side], workload, seed)
                    machine = {k: v for k, v in result["machine"].items() if k != "commit"}
                    record = {"pair": seed, "seed": seed, "side": side,
                              "failed": result["failed"], "attempted": result["attempted"]}
                    record.update({k: v["value"] for k, v in result["metrics"].items()})
                    runs[workload].append(record)
                    print(json.dumps({"workload": workload, **record}), flush=True)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    summary = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {SECONDS:g} --trace 0",
        "parent": commits["parent"],
        "change": commits["change"],
        "protocol": f"{args.pairs} pairs per workload; pair i uses --seed i; "
                    "the parent runs first in even pairs, the change first in odd pairs; each "
                    "side runs from a git archive of its commit; quartiles are numpy linear "
                    "percentiles over the per-run medians; 'failed' is [failed, attempted] "
                    "repetitions; 'worse_than_bound' says whether the change's median is worse "
                    "than the parent's by more than the metric's BENCHMARK.json bound. Raw "
                    "repetitions are not kept; 'runs' holds each run's medians.",
        "machine": machine,
        "summary": {w: summarise(rs, better, bounds) for w, rs in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
