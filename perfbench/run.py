"""hjsim benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload short_paths --seed 0 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/hjsim``.  The workload's
operation is repeated until ``--seconds`` have passed (at least three
times); every repetition's outputs are checked.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics, as medians over the
repetitions; set-up time is the median of separate fresh processes, spread
over the run, that each import hjsim, build the model and make a warm-up
call.  With ``--trace 1`` half the time runs untraced and half traced (see
``tracer.py``); the last line holds the per-layer metrics of the traced
operations, whose outputs must be byte-identical to the untraced ones.

Operation times are scaled to a nominal machine speed.  On a shared host
the speed of one core can swing by a factor of two within seconds, which no
affordable number of repetitions averages away.  So each timed operation is
bracketed by ``reference_loop``, a fixed mix of interpreter and small-array
numpy work like hjsim's own, and its wall time is multiplied by
``REFERENCE_LOOP_S`` over the loop's measured time: the result is the time
the operation would take on a machine that runs the loop in
``REFERENCE_LOOP_S``.  Set-up time, which is mostly the import of numpy and
scipy, tracks that loop poorly; instead each set-up probe follows a fresh
interpreter that only imports numpy and ``scipy.special``, and is multiplied
by ``REFERENCE_IMPORT_S`` over that import's time.  The raw times and scales
are kept in the results file.

Results, with machine and library information, also go to
``.bench_out/results/``; the spans of a traced run go to ``.bench_out/trace/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 7
MIN_REPS = 3
REFERENCE_LOOP_S = 0.015  # reference_loop's median time on a 2.1 GHz Xeon core
REFERENCE_IMPORT_S = 0.35  # REFERENCE_IMPORT's median time on the same core
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); import numpy, scipy.special; "
                    "print(repr(time.perf_counter() - t))")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "paths_per_s": "1/s",
                    "events_per_s": "1/s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import the workloads against this checkout's hjsim source tree only."""
    if not os.path.isfile(os.path.join(SRC, "hjsim", "__init__.py")):
        raise SystemExit(f"perfbench: no hjsim source tree under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    if not os.path.abspath(workloads.hjsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported hjsim from {workloads.hjsim.__file__}")
    return workloads


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work that involves no hjsim code."""
    import numpy as np

    a = np.array([[1.0, 0.5], [0.25, 1.5]])
    started = time.perf_counter()
    total = 0
    for k in range(60_000):
        total += k * k
    y = a
    for _ in range(1500):
        y = y * np.exp(-a * 1e-3)
        total += float(y.sum())
    return time.perf_counter() - started


def make_workdir() -> str:
    path = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def probe_setup(args) -> None:
    """Child process: time the hjsim import, model build and warm-up call
    (the benchmark's own modules are imported outside the timed part)."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import hjsim.cli  # noqa: F401  (every workload's import cost)
    imported = time.perf_counter() - started
    workloads = import_workloads()
    workdir = make_workdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        started = time.perf_counter()
        workload.setup()
        print(repr(imported + time.perf_counter() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _child_seconds(argv) -> float:
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def probe_once(args) -> dict:
    """One reference import and one set-up probe, each in a fresh process."""
    reference = _child_seconds(["-c", REFERENCE_IMPORT])
    raw = _child_seconds([os.path.abspath(__file__), "--probe-setup",
                          "--workload", args.workload, "--seed", str(args.seed)])
    return {"raw_s": raw, "reference_s": reference}


class Rep:
    """One timed operation: raw wall seconds, the speed scale around it,
    its output and the checks it failed."""

    def __init__(self, wall, scale, out, fails):
        self.wall, self.scale, self.out, self.fails = wall, scale, out, fails

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def repeat(workload, seconds: float, min_reps: int, before=None, after=None) -> list[Rep]:
    """Run and check the operation until ``seconds`` have passed; ``before``
    and ``after`` are called with the repetition index around each run."""
    reps = []
    started = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - started < seconds:
        index = len(reps)
        gc.collect()
        loop_before = reference_loop()
        if before:
            before(index)
        t0 = time.perf_counter()
        try:
            out = workload.run()
            fails = []
        except Exception:  # a failed operation is counted, not fatal
            out, fails = None, [traceback.format_exc()]
        finally:
            wall = time.perf_counter() - t0
            if after:
                after(index)
        scale = REFERENCE_LOOP_S / ((loop_before + reference_loop()) / 2)
        if out is not None:
            try:
                fails = workload.check(out)
            except Exception:
                fails = [traceback.format_exc()]
        reps.append(Rep(wall, scale, out, fails))
    first = next((r.out for r in reps if r.out is not None), None)
    for r in reps:
        if r.out is not None and (r.out.fingerprint != first.fingerprint
                                  or r.out.event_digest != first.event_digest):
            r.fails.append("output differs from the first repetition")
    return reps


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reps, setups) -> dict:
    ok = [r for r in reps if r.out is not None] or reps
    values = {
        "setup_s": median(p["raw_s"] * REFERENCE_IMPORT_S / p["reference_s"] for p in setups),
        "wall_s": median(r.scaled for r in reps),
        "paths_per_s": median(r.out.paths / r.scaled for r in ok),
        "events_per_s": median(r.out.events / r.scaled for r in ok),
        "samples_per_s": median(r.out.samples / r.scaled for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(workload, reps_untraced, seconds, hjsim_pkg, spans_file) -> tuple[list, dict]:
    """Traced repetitions; per-layer metrics are medians over them."""
    import tracer as tracing

    tr = tracing.Tracer(hjsim_pkg)
    snapshots = []

    def before(op):
        tr.install()
        tr.begin_op(op)

    def after(op):
        tr.restore()
        snapshots.append(tr.stats)
        if op == 0:
            os.makedirs(os.path.dirname(spans_file), exist_ok=True)
            extra["spans"] = tr.save_spans(spans_file)

    extra = {"spans_file": os.path.relpath(spans_file, ROOT)}
    before(-1)  # the model build and warm-up, traced once
    try:
        workload.setup()
    finally:
        tr.restore()
    reps = repeat(workload, seconds, 2, before, after)
    ref = reps_untraced[0].out
    for r in reps:
        if r.out is not None and ref is not None and r.out.fingerprint != ref.fingerprint:
            r.fails.append("traced output is not byte-identical to the untraced output")
    per_rep = [tracing.layer_metrics(s, r.wall, r.scale) for s, r in zip(snapshots, reps)]
    metrics = {k: {"value": median(m[k][0] for m in per_rep), "unit": u}
               for k, (_, u) in per_rep[0].items()}
    metrics["model.build_s"] = {"value": median(tr.build_s) * median(r.scale for r in reps),
                                "unit": "s"}
    metrics["cli.files_written"] = {"value": median(r.out.files if r.out else 0 for r in reps),
                                    "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": median(r.scaled for r in reps) / median(r.scaled for r in reps_untraced) - 1.0,
        "unit": "ratio"}
    extra["metrics"] = metrics
    return reps, extra


def read_commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": read_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = make_workdir()
    reference_loop()  # the first pass in a process runs cold
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            workload.setup()
            untraced = repeat(workload, args.seconds / 2, 2)
            traced_reps, extra = traced(
                workload, untraced, args.seconds / 2, workloads.hjsim,
                os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.npz"))
            reps = untraced + traced_reps
            metrics = extra.pop("metrics")
        else:
            # Set-up probes are spread over the run, so they see the same
            # machine as the repetitions they sit between.
            setups = []
            started = time.perf_counter()

            def probe_when_due(index):
                due = len(setups) * args.seconds / SETUP_RUNS
                if len(setups) < SETUP_RUNS and time.perf_counter() - started >= due:
                    setups.append(probe_once(args))

            workload.setup()
            reps = repeat(workload, args.seconds, MIN_REPS, before=probe_when_due)
            while len(setups) < SETUP_RUNS:
                setups.append(probe_once(args))
            metrics = end_to_end(reps, setups)
            extra = {"setup_probes": setups}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in reps if r.fails)
    for r in reps:
        for msg in r.fails:
            print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(),
                  reps=[{"wall_s": r.wall, "scale": r.scale, "fails": r.fails,
                         "event_digest": r.out and r.out.event_digest,
                         "detail": r.out and r.out.detail} for r in reps], **extra)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
