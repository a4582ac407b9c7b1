"""The three benchmark workloads: inputs from a seed, the timed operation,
and the checks on its outputs.

Each workload is built from ``(seed, workdir)``; ``setup`` builds the model
(or parses the config) and makes a small warm-up call; ``run`` performs the
timed operation once and returns an ``Output``; ``check`` returns the list of
failed output checks for it.  Repeating ``run`` on one workload repeats the
same simulation, so every repetition must give the same fingerprint.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

import hjsim
from hjsim import cli, pathio

GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_LINEAR_DRIFT = {"type": "linear", "rate": 1.0, "intercept": 0.0}
_UNIT_NOISE = {"type": "constant", "value": 1.0}
_HALVING_JUMP = {"type": "linear_damping", "eta": 0.5}

# M=2 excitatory pair, interaction matrix [[.3,.2],[.1,.4]] (spectral radius 0.5).
TWO_COMPONENT = {
    "M": 2,
    "rates": [{"type": "affine_clipped", "floor": 1e-6, "intercept": 0.5, "slope": 1.0}] * 2,
    "kernel": {"c": [0.3, 0.2, 0.1, 0.4], "alpha": [1.0] * 4},
    "coefficients": {"drift": _LINEAR_DRIFT, "diffusion": _UNIT_NOISE, "jump": _HALVING_JUMP},
    "initial": {"x": 0.0, "y": [0.0] * 4},
}

# M=1 reference model: rate 1 + u, amplitude .5, decay 1; stationary rate 2.
REFERENCE = {
    "M": 1,
    "rates": [{"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0}],
    "kernel": {"c": [0.5], "alpha": [1.0]},
    "coefficients": {"drift": _LINEAR_DRIFT, "diffusion": _UNIT_NOISE, "jump": _HALVING_JUMP},
    "initial": {"x": 0.0, "y": [0.0]},
}

# M=3 mixed-sign model in the polynomial frame (spectral radius about 0.39).
MIXED3 = {
    "M": 3,
    "rates": [{"type": "sigmoid", "height": 2.0, "steepness": 1.0, "center": 0.0}] * 3,
    "kernel": {"c": [0.5, -0.3, 0.2, 0.2, 0.4, -0.3, -0.3, 0.2, 0.4],
               "alpha": [1.0, 2.0, 1.5, 1.2, 1.0, 0.8, 2.0, 1.5, 1.0]},
    "coefficients": {"drift": {"type": "bounded_smooth", "amplitude": 2.0, "steepness": 1.0},
                     "diffusion": {"type": "smooth_bounded", "lo": 0.5, "hi": 1.5},
                     "jump": _HALVING_JUMP},
    "initial": {"x": 0.0, "y": [0.0] * 9},
}


@dataclass
class Output:
    """What one timed operation produced, reduced to what the checks need."""

    paths: int
    events: int
    samples: int
    event_digest: str = ""
    fingerprint: str = ""
    files: int = 0
    detail: dict = field(default_factory=dict)


def event_digest(paths) -> str:
    """sha256 over every path's event count, times and components, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(np.int64(p.n_events).tobytes())
        h.update(np.asarray(p.event_times, dtype="<f8").tobytes())
        h.update(np.asarray(p.event_components, dtype="<i4").tobytes())
    return h.hexdigest()


def linear_hawkes_mean_count(model: dict, horizon: float) -> float:
    """Closed-form mean event count of a linear (never clipped) Hawkes model
    started from y = 0: with m_i = mu_i + s_i * sum_k y_ik and
    dy_ij/dt = -alpha_ij*y_ij + c_ij*m_j, integrate sum_i m_i exactly."""
    m = model["M"]
    mu = np.array([r["intercept"] for r in model["rates"]])
    s = np.array([r["slope"] for r in model["rates"]])
    c = np.reshape(model["kernel"]["c"], (m, m))
    alpha = np.reshape(model["kernel"]["alpha"], (m, m))
    n = m * m
    a = np.zeros((n + 2, n + 2))  # state: y (row-major), count, constant 1
    for i in range(m):
        for j in range(m):
            row = i * m + j
            a[row, row] -= alpha[i, j]
            a[row, j * m:(j + 1) * m] += c[i, j] * s[j]
            a[row, n + 1] += c[i, j] * mu[j]
        a[n, i * m:(i + 1) * m] += s[i]
    a[n, n + 1] = mu.sum()
    start = np.zeros(n + 2)
    start[n + 1] = 1.0
    return float((expm(a * horizon) @ start)[n])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        # The program sees only this derived 63-bit simulation seed.
        self.sim_seed = random.Random(seed).getrandbits(63)

    def golden_failures(self, digest: str) -> list[str]:
        """The event digest against the one recorded for this seed, if any."""
        with open(GOLDEN_FILE, encoding="utf-8") as fh:
            want = json.load(fh).get(self.name, {}).get(str(self.seed))
        if want is not None and digest != want:
            return [f"event digest {digest[:16]} != recorded {want[:16]} for seed {self.seed}"]
        return []


class ShortPaths(Workload):
    """Many short M=2 paths through ``simulate_ensemble``, exact-OU, no grid."""

    name = "short_paths"
    n_paths = 1000
    horizon = 5.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.expected_mean = linear_hawkes_mean_count(TWO_COMPONENT, self.horizon)

    def setup(self) -> None:
        self.model = hjsim.model_from_dict(TWO_COMPONENT)
        self.cfg = hjsim.IntegratorConfig(hjsim.ExactOU(), grid_dt=self.horizon)
        hjsim.simulate_ensemble(self.model, self.horizon, self.cfg, self.sim_seed ^ 1, 20)

    def run(self) -> Output:
        paths = hjsim.simulate_ensemble(self.model, self.horizon, self.cfg,
                                        self.sim_seed, self.n_paths, workers=1)
        counts = np.array([p.n_events for p in paths], dtype=float)
        return Output(paths=len(paths), events=int(counts.sum()),
                      samples=sum(len(p.skeleton_times) for p in paths),
                      detail={"paths": paths, "counts": counts})

    def check(self, out: Output) -> list[str]:
        paths, counts = out.detail.pop("paths"), out.detail.pop("counts")
        out.event_digest = event_digest(paths)
        h = hashlib.sha256()
        for p in paths:
            h.update(pathio.dumps_binary(p))
        out.fingerprint = h.hexdigest()
        fails = self.golden_failures(out.event_digest)
        if out.paths != self.n_paths:
            fails.append(f"{out.paths} paths returned, {self.n_paths} asked")
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        mean = float(counts.mean())
        out.detail = {"mean_count": mean, "expected": self.expected_mean, "se": float(se)}
        if not abs(mean - self.expected_mean) <= 4 * se:
            fails.append(f"mean count {mean:.4f} vs closed form "
                         f"{self.expected_mean:.4f} beyond 4 SE ({se:.4f})")
        return fails


class LongPath(Workload):
    """One long M=1 reference path, ergodic diagnostics, binary round trip."""

    name = "long_path"
    horizon = 1000.0
    grid_dt = 0.01
    stationary_rate = 2.0  # 1 / (1 - c/alpha)

    def setup(self) -> None:
        self.model = hjsim.model_from_dict(REFERENCE)
        self.cfg = hjsim.IntegratorConfig(hjsim.ExactOU(), grid_dt=self.grid_dt)
        self._diagnose(hjsim.simulate_path(self.model, 20.0, self.cfg, self.sim_seed ^ 1))

    def _diagnose(self, path):
        burn_in = 0.1 * path.horizon
        est = hjsim.time_average(path, "rate", burn_in=burn_in, model=self.model)
        density = hjsim.invariant_histogram([path], bins=30, compact=(-1.0, 1.0),
                                            grid_dt=self.grid_dt, burn_in=burn_in)
        blob = pathio.dumps_binary(path)
        return est, density, blob, pathio.read_binary(io.BytesIO(blob))

    def run(self) -> Output:
        path = hjsim.simulate_path(self.model, self.horizon, self.cfg, self.sim_seed)
        est, _, blob, back = self._diagnose(path)
        return Output(paths=1, events=path.n_events, samples=len(path.skeleton_times),
                      detail={"path": path, "est": est, "blob": blob, "back": back})

    def check(self, out: Output) -> list[str]:
        d = out.detail
        path, est, blob, back = d["path"], d["est"], d["blob"], d["back"]
        out.event_digest = event_digest([path])
        out.fingerprint = hashlib.sha256(blob).hexdigest()
        fails = self.golden_failures(out.event_digest)
        if not abs(est.value - self.stationary_rate) <= 4 * est.standard_error:
            fails.append(f"time-averaged rate {est.value:.4f} vs {self.stationary_rate} "
                         f"beyond 4 batch SE ({est.standard_error:.4f})")
        same = all(np.array_equal(getattr(path, k), getattr(back, k))
                   for k in ("event_times", "event_components", "skeleton_times",
                             "skeleton_x", "skeleton_row_sums"))
        if not (same and pathio.dumps_binary(back) == blob and back.seed == path.seed
                and back.model_hash == path.model_hash):
            fails.append("binary round trip is not exact")
        out.detail = {"rate": est.value, "rate_se": est.standard_error,
                      "bytes": len(blob)}
        return fails


class CliSimulate(Workload):
    """``hjsim simulate`` in-process: M=3 sigmoid model, Euler-Maruyama, jsonl."""

    name = "cli_simulate"
    n_paths = 4
    horizon = 200.0
    grid_dt = 0.05
    em_step = 0.005

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.config_path = os.path.join(workdir, "mixed3.json")
        self.reps = 0

    def _argv(self, out_dir: str, horizon: float, n_paths: int, seed: int) -> list[str]:
        return ["simulate", "--config", self.config_path, "--horizon", repr(horizon),
                "--paths", str(n_paths), "--seed", str(seed), "--grid-dt", repr(self.grid_dt),
                "--format", "jsonl", "--integrator", "em", "--em-step", repr(self.em_step),
                "--workers", "1", "--out", out_dir]

    def setup(self) -> None:
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(MIXED3, fh)
        self.model = cli.parse_config(self.config_path).model
        self.digest = hjsim.model_digest(self.model)
        warm = os.path.join(self.workdir, "warm-up")
        rc = cli.main(self._argv(warm, 5.0, 1, self.sim_seed ^ 1))
        shutil.rmtree(warm)
        if rc != 0:
            raise RuntimeError(f"warm-up simulate exited {rc}")

    def run(self) -> Output:
        self.reps += 1
        out_dir = os.path.join(self.workdir, f"out-{self.reps}")
        rc = cli.main(self._argv(out_dir, self.horizon, self.n_paths, self.sim_seed))
        return Output(paths=self.n_paths, events=0, samples=0, detail={"rc": rc, "dir": out_dir})

    def check(self, out: Output) -> list[str]:
        rc, out_dir = out.detail["rc"], out.detail["dir"]
        out.detail = {"rc": rc}
        if rc != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return [f"simulate exited {rc}"]
        fails = []
        names = sorted(os.listdir(out_dir))
        out.files = len(names)
        expected = [f"path_{i:05d}.jsonl" for i in range(self.n_paths)]
        if names != sorted(expected + ["manifest.json"]):
            fails.append(f"unexpected output files {names}")
        paths = []
        h = hashlib.sha256()
        for i, name in enumerate(expected):
            try:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    data = fh.read()
                h.update(data)
                path = pathio.read_jsonl(io.StringIO(data.decode()))
            except (OSError, ValueError, KeyError) as exc:
                fails.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            if (path.n_components != MIXED3["M"] or path.horizon != self.horizon
                    or path.seed != hjsim.derive_path_seed(self.sim_seed, i)
                    or path.model_hash != self.digest):
                fails.append(f"{name}: header (M, horizon, seed, model digest) "
                             "does not match the run")
            paths.append(path)
        shutil.rmtree(out_dir)
        out.events = sum(p.n_events for p in paths)
        out.samples = sum(len(p.skeleton_times) for p in paths)
        out.event_digest = event_digest(paths)
        out.fingerprint = h.hexdigest()
        return fails + self.golden_failures(out.event_digest)


WORKLOADS = {cls.name: cls for cls in (ShortPaths, LongPath, CliSimulate)}
