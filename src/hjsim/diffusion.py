"""Integration of the diffusion between events and the event displacement.

Two schemes: Euler-Maruyama substepping with a fixed step (the last partial
substep lands exactly on the requested interval), and the exact Gaussian
transition for linear drift with constant noise.  With a zero diffusion
coefficient no noise draws are consumed, so the integrator is a
deterministic ODE step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import CoefficientSpec, ConstantDiffusion, LinearDrift, PowerBoundedJump
from .rng import RandomStream

__all__ = [
    "EulerMaruyama",
    "ExactOU",
    "IntegratorConfig",
    "advance_diffusion",
    "advance_diffusion_many",
    "apply_state_jump",
]

_REL_EPS = 1e-12


@dataclass(frozen=True)
class EulerMaruyama:
    """Fixed-step scheme x <- x + b(x)*h + sigma(x)*sqrt(h)*xi."""

    step: float

    kind = "euler_maruyama"

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be a finite positive number")


@dataclass(frozen=True)
class ExactOU:
    """Exact Gaussian transition; admissible only for linear drift with constant sigma."""

    kind = "exact_ou"


Scheme = Union[EulerMaruyama, ExactOU]


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: Scheme
    grid_dt: float

    def __post_init__(self):
        if not (self.grid_dt > 0 and math.isfinite(self.grid_dt)):
            raise ValueError("grid_dt must be a finite positive number")

    def validate_for(self, coeffs: CoefficientSpec) -> None:
        if isinstance(self.scheme, ExactOU):
            if not isinstance(coeffs.drift, LinearDrift):
                raise ValueError("exact transition requires a linear drift")
            if not isinstance(coeffs.diffusion, ConstantDiffusion):
                raise ValueError("exact transition requires a constant diffusion coefficient")


def _ou_moments(x, dt, drift: LinearDrift, sigma: float, exp=math.exp):
    """Mean and variance of the exact transition over dt from x.  With
    ``exp=_exp_each``, x and dt may be arrays of per-row values."""
    beta, b0 = drift.rate, drift.intercept
    # A rate so small that b0 / beta overflows acts as a zero rate: its decay
    # rounds to 1, and the formula below would take inf - inf.
    mean_level = b0 / beta if beta else math.inf
    if math.isinf(mean_level):
        return x + b0 * dt, sigma * sigma * dt
    decay = exp(-beta * dt)
    mean = mean_level + (x - mean_level) * decay
    var = sigma * sigma * (1.0 - decay * decay) / (2.0 * beta)
    return mean, var


def _exp_each(v: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element: numpy's vectorised exp does not round
    as libm's does, and the array steps must equal the scalar ones."""
    return np.array([math.exp(e) for e in v.tolist()])


def _em_steps(dt: float, h: float) -> list[float]:
    """Euler-Maruyama substeps over dt: full steps of length h, then the
    partial step that lands on dt unless it is below rounding."""
    n_full = int(dt / h + _REL_EPS)
    rem = dt - n_full * h
    return [h] * n_full + ([rem] if rem >= _REL_EPS * max(h, dt) else [])


def _normals(rng: RandomStream, n: int) -> list[float]:
    """n standard normals; a single one skips the array round trip."""
    return [rng.normal()] if n == 1 else rng.normals(n).tolist()


def _advance_segment(x: float, dts, coeffs: CoefficientSpec, cfg: IntegratorConfig,
                     rng: RandomStream) -> list[float]:
    """Positions after each of the consecutive intervals ``dts`` (all > 0).

    The normals of the whole segment (one per exact-OU interval, one per
    Euler-Maruyama substep, none without noise) are drawn in one block;
    since ``rng.normals(k)`` equals k calls to ``rng.normal()``, the stream
    is the same as one draw per step.
    """
    diffusion = coeffs.diffusion
    noiseless = isinstance(diffusion, ConstantDiffusion) and diffusion.value == 0.0
    drift = coeffs.drift
    out = []
    if isinstance(cfg.scheme, ExactOU):
        sigma = diffusion.value
        z = iter(() if noiseless else _normals(rng, len(dts)))
        for dt in dts:
            mean, var = _ou_moments(x, dt, drift, sigma)
            x = mean if noiseless else mean + math.sqrt(var) * next(z)
            out.append(x)
        return out

    plan = [_em_steps(dt, cfg.scheme.step) for dt in dts]
    z = iter(() if noiseless else _normals(rng, sum(map(len, plan))))
    for steps in plan:
        for s in steps:
            b = float(drift(x))
            if noiseless:
                x = x + b * s
            else:
                x = x + b * s + float(diffusion(x)) * math.sqrt(s) * next(z)
        out.append(x)
    return out


def advance_diffusion(x: float, dt: float, coeffs: CoefficientSpec,
                      cfg: IntegratorConfig, rng: RandomStream) -> float:
    """Advance the diffusion from x over an interval of length dt > 0."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    cfg.validate_for(coeffs)
    return _advance_segment(x, (dt,), coeffs, cfg, rng)[0]


def advance_diffusion_many(xs: np.ndarray, dt: float, coeffs: CoefficientSpec,
                           cfg: IntegratorConfig, rng: RandomStream) -> np.ndarray:
    """Vectorised advance of many independent positions over the same dt.

    Uses one normal draw per position per substep, in position-major order;
    the marginal law of each output matches :func:`advance_diffusion`.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    xs = np.array(xs, dtype=float, copy=True)
    n = len(xs)
    scheme = cfg.scheme
    if isinstance(scheme, ExactOU):
        cfg.validate_for(coeffs)
        sigma = coeffs.diffusion.value
        mean, var = _ou_moments(xs, dt, coeffs.drift, sigma)
        if sigma == 0.0:
            return np.asarray(mean)
        return mean + math.sqrt(var) * rng.normals(n)

    diffusion = coeffs.diffusion
    noiseless = isinstance(diffusion, ConstantDiffusion) and diffusion.value == 0.0
    for s in _em_steps(dt, scheme.step):
        b = coeffs.drift(xs)
        if noiseless:
            xs = xs + b * s
        else:
            xs = xs + b * s + diffusion(xs) * math.sqrt(s) * rng.normals(n)
    return xs


def apply_state_jump(x: float, coeffs: CoefficientSpec) -> float:
    """Post-event position x + a(x)."""
    return x + float(coeffs.jump(x))


def _apply_state_jumps(xs: np.ndarray, coeffs: CoefficientSpec) -> np.ndarray:
    """:func:`apply_state_jump` at every position of ``xs``, rounding as the
    scalar call does.  numpy's array power does not round as libm's pow, so
    a power-bounded map is applied one position at a time."""
    if isinstance(coeffs.jump, PowerBoundedJump):
        return np.array([apply_state_jump(x, coeffs) for x in xs.tolist()])
    return xs + coeffs.jump(xs)
