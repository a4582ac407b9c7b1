"""Command-line front end: simulate, check-stability, ergodic-test, mixing-test.

Models are JSON files (schema in :mod:`hjsim.model`); run-shape parameters
come from flags, optionally defaulted by a "run" object in the same file.
Every run writes a manifest next to its outputs recording digests, seeds
and the produced files.  All files are written atomically (temp file plus
rename).  The environment variable HJS_THREADS overrides the worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from functools import partial

from . import __version__
from .diagnostics import invariant_histogram, mixing_curve, time_average
from .diffusion import EulerMaruyama, ExactOU, IntegratorConfig
from .engine import simulate_ensemble
from .model import (ConfigError, ModelSpec, _finite, _require, canonical_json, model_digest,
                    model_from_dict, model_to_dict, state_from_dict)
from .pathio import write_binary, write_jsonl
from .stability import stability_report

__all__ = ["RunConfig", "parse_config", "serialize_config", "config_digest", "main"]

_MAX_SEED = 2 ** 64 - 1


@dataclass
class RunConfig:
    """Model plus run-shape parameters; unset fields fall back to defaults
    (burn_in defaults to 10% of the horizon at use time)."""

    model: ModelSpec
    horizon: float | None = None
    n_paths: int = 1
    seed: int = 0
    grid_dt: float = 0.01
    integrator: str = "em"
    em_step: float | None = None
    burn_in: float | None = None
    format: str = "jsonl"
    g: str = "x"
    bins: int = 30
    times: list[float] | None = None
    scan_radius: float = 20.0
    points: int = 10_000

    def validate(self) -> None:
        for key, f in _RUN_FIELDS.items():
            kind, _, optional = f.type.partition(" | ")
            check, what = _TYPE_CHECKS[kind]
            value = getattr(self, key)
            if not (check(value) or value is None and optional):
                raise ConfigError(f"run.{key}", f"must be {what}" + (" or null" if optional else ""))
        _require(0 <= self.seed <= _MAX_SEED, "run.seed", "must be a 64-bit unsigned integer")
        _require(self.horizon is None or self.horizon > 0, "run.horizon", "must be > 0")
        # the cap of the grid, histogram and scan
        _require(1 <= self.n_paths <= 10 ** 7, "run.n_paths", "must be between 1 and 10000000")
        _require(self.grid_dt > 0, "run.grid_dt", "must be > 0")
        _require(self.integrator in ("em", "exact-ou"), "run.integrator",
                 "must be 'em' or 'exact-ou'")
        _require(self.em_step is None or self.em_step > 0, "run.em_step", "must be > 0")
        _require(self.burn_in is None or self.burn_in >= 0, "run.burn_in", "must be >= 0")
        _require(self.format in ("jsonl", "bin"), "run.format", "must be 'jsonl' or 'bin'")
        # ergodic-test writes every bin's edge and mass into its report
        _require(2 <= self.bins <= 10 ** 6, "run.bins", "must be between 2 and 1000000")
        _require(self.points >= 2, "run.points", "must be >= 2")
        _require(self.scan_radius > 0, "run.scan_radius", "must be > 0")

    def integrator_config(self) -> IntegratorConfig:
        if self.integrator == "exact-ou":
            scheme = ExactOU()
        else:
            scheme = EulerMaruyama(self.em_step if self.em_step is not None else self.grid_dt)
        return IntegratorConfig(scheme, self.grid_dt)

    def effective_burn_in(self) -> float:
        return self.burn_in if self.burn_in is not None else 0.1 * (self.horizon or 0.0)


# The run-shape fields with their defaults and annotations, and a check and
# description for each annotation; bools are not numbers.
_RUN_FIELDS = {f.name: f for f in fields(RunConfig) if f.name != "model"}
_TYPE_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_finite, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[float]": (lambda v: isinstance(v, list) and all(map(_finite, v)),
                    "a list of finite numbers"),
}


def serialize_config(config: RunConfig) -> dict:
    run = {}
    for key, f in _RUN_FIELDS.items():
        value = getattr(config, key)
        if value != f.default:
            run[key] = value
    d = model_to_dict(config.model)
    if run:
        d["run"] = run
    return d


def config_digest(config: RunConfig) -> str:
    return hashlib.sha256(canonical_json(serialize_config(config)).encode()).hexdigest()


def parse_config(path: str) -> RunConfig:
    """Load and validate a model config file, filling run-shape defaults.

    Raises :class:`ConfigError` naming the first invalid field.
    """
    _require(os.path.exists(path), "<config>", f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    known_model = {"M", "rates", "kernel", "coefficients", "initial"}
    for key in raw:
        _require(key in known_model | {"run"}, key, "unknown top-level field")
    model = model_from_dict({k: v for k, v in raw.items() if k in known_model})
    config = RunConfig(model=model)
    run = raw.get("run", {})
    _require(isinstance(run, dict), "run", "must be an object")
    for key, value in run.items():
        _require(key in _RUN_FIELDS, f"run.{key}", "unknown run parameter")
        setattr(config, key, value)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, write) -> None:
    """Create ``path`` atomically: ``write(fh)`` fills a temporary binary
    file next to it, which then replaces ``path``; on any failure the
    temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: str, data: bytes) -> None:
    _atomic_write(path, lambda fh: fh.write(data))


def _atomic_write_json(path: str, obj) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _write_manifest(directory_or_file: str, command: str, config: RunConfig,
                    outputs: list[str], wall_clock: float,
                    per_path_seeds: list[int] | None = None) -> str:
    manifest = {
        "tool": "hjsim",
        "version": __version__,
        "command": command,
        "config_digest": config_digest(config),
        "model_digest": model_digest(config.model),
        "master_seed": config.seed,
        "per_path_seeds": per_path_seeds,
        "wall_clock_s": wall_clock,
        "outputs": outputs,
    }
    target = (os.path.join(directory_or_file, "manifest.json") if os.path.isdir(directory_or_file)
              else directory_or_file + ".manifest.json")
    _atomic_write_json(target, manifest)
    return target


def _resolve_workers(flag_value: int | None) -> int:
    env = os.environ.get("HJS_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError("HJS_THREADS", "must be an integer") from exc
    return max(1, flag_value or 1)


def _load(args: argparse.Namespace, required=()) -> RunConfig:
    """The config file with the flags merged in; the run fields ``required`` must be set."""
    config = parse_config(args.config)
    for key in _RUN_FIELDS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            setattr(config, key, flag)
    config.validate()
    for key in required:
        _require(getattr(config, key) is not None, f"run.{key}",
                 f"missing (set --{key} or run.{key})")
    return config


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args, ["horizon"])
    integ = config.integrator_config()
    workers = _resolve_workers(args.workers)
    started = time.monotonic()
    paths = simulate_ensemble(config.model, config.horizon, integ, config.seed,
                              config.n_paths, workers=workers)
    os.makedirs(args.out, exist_ok=True)
    ext, write = ("jsonl", write_jsonl) if config.format == "jsonl" else ("hjsm", write_binary)
    outputs = [f"path_{i:05d}.{ext}" for i in range(len(paths))]
    for name, path in zip(outputs, paths):
        # each file is written as the writer yields it, never held whole
        _atomic_write(os.path.join(args.out, name), partial(write, path))
    _write_manifest(args.out, "simulate", config, outputs, time.monotonic() - started,
                    per_path_seeds=[p.seed for p in paths])
    return 0


def _cmd_check_stability(args: argparse.Namespace) -> int:
    config = _load(args)
    started = time.monotonic()
    report = stability_report(config.model, scan_radius=config.scan_radius,
                              n_points=config.points, seed=config.seed)
    _atomic_write_json(args.out, report)
    _write_manifest(args.out, "check-stability", config,
                    [os.path.basename(args.out)], time.monotonic() - started)
    return 0


def _cmd_ergodic_test(args: argparse.Namespace) -> int:
    config = _load(args, ["horizon"])
    integ = config.integrator_config()
    started = time.monotonic()
    paths = simulate_ensemble(config.model, config.horizon, integ,
                              config.seed, 1, workers=1)
    estimate = time_average(paths[0], config.g, burn_in=config.effective_burn_in(),
                            model=config.model)
    density = invariant_histogram(paths, bins=config.bins, compact=(-1.0, 1.0),
                                  grid_dt=config.grid_dt,
                                  burn_in=config.effective_burn_in())
    report = {
        "command": "ergodic-test",
        "g": config.g,
        "horizon": config.horizon,
        "estimate": estimate.to_dict(),
        "histogram": density.to_dict(),
        "n_events": paths[0].n_events,
    }
    _atomic_write_json(args.out, report)
    _write_manifest(args.out, "ergodic-test", config,
                    [os.path.basename(args.out)], time.monotonic() - started)
    return 0


def _parse_state(text: str, m: int, which: str):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(which, f"not valid JSON: {exc}") from exc
    return state_from_dict(d, m, field=which)


def _cmd_mixing_test(args: argparse.Namespace) -> int:
    config = _load(args, ["times"])
    start_a = _parse_state(args.start_a, config.model.n_components, "start-a")
    start_b = _parse_state(args.start_b, config.model.n_components, "start-b")
    integ = config.integrator_config()
    started = time.monotonic()
    curve = mixing_curve(config.model, start_a, start_b, config.times,
                         config.n_paths, config.bins, integ, master_seed=config.seed)
    report = {
        "command": "mixing-test",
        "n_paths": config.n_paths,
        "bins": config.bins,
        "curve": curve.to_dict(),
    }
    _atomic_write_json(args.out, report)
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    lines = ["t,tv,fit"] + [f"{float(t)!r},{float(tv)!r},{float(fit)!r}" for t, tv, fit
                            in zip(curve.times, curve.tv_estimates, curve.fitted_values())]
    _atomic_write_bytes(csv_path, ("\n".join(lines) + "\n").encode())
    _write_manifest(args.out, "mixing-test", config,
                    [os.path.basename(args.out), os.path.basename(csv_path)],
                    time.monotonic() - started)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _times_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad times list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjsim",
        description="Simulator and long-run diagnostics for diffusions with "
                    "jumps driven by a mutually exciting point process.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", required=True)
    simulating = argparse.ArgumentParser(add_help=False, parents=[common])
    simulating.add_argument("--grid-dt", dest="grid_dt", type=float, default=None)
    simulating.add_argument("--integrator", choices=["em", "exact-ou"], default=None)

    sim = sub.add_parser("simulate", parents=[simulating], help="generate trajectories")
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--paths", dest="n_paths", type=int, default=None)
    sim.add_argument("--format", choices=["jsonl", "bin"], default=None)
    sim.add_argument("--em-step", dest="em_step", type=float, default=None)
    sim.add_argument("--workers", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    chk = sub.add_parser("check-stability", parents=[common], help="stability report")
    chk.add_argument("--scan-radius", dest="scan_radius", type=float, default=None)
    chk.add_argument("--points", type=int, default=None)
    chk.set_defaults(func=_cmd_check_stability)

    erg = sub.add_parser("ergodic-test", parents=[simulating], help="time-average diagnostics")
    erg.add_argument("--horizon", type=float, default=None)
    erg.add_argument("--burn-in", dest="burn_in", type=float, default=None)
    erg.add_argument("--g", choices=["x", "x2", "rate", "one"], default=None)
    erg.set_defaults(func=_cmd_ergodic_test)

    mix = sub.add_parser("mixing-test", parents=[simulating], help="two-start mixing decay")
    mix.add_argument("--times", type=_times_list, default=None)
    mix.add_argument("--paths", dest="n_paths", type=int, default=None)
    mix.add_argument("--bins", type=int, default=None)
    mix.add_argument("--start-a", dest="start_a", required=True)
    mix.add_argument("--start-b", dest="start_b", required=True)
    mix.set_defaults(func=_cmd_mixing_test)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        payload = {"error": "ConfigError", "field": exc.field, "message": str(exc)}
    except (ValueError, RuntimeError, OSError, MemoryError, OverflowError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
