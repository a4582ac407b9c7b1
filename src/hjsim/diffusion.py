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

from .model import CoefficientSpec, ConstantDiffusion, LinearDrift
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


def _noiseless(coeffs: CoefficientSpec) -> bool:
    diffusion = coeffs.diffusion
    return isinstance(diffusion, ConstantDiffusion) and diffusion.value == 0.0


def _ou_terms(dts: np.ndarray, drift: LinearDrift, sigma: float):
    """The exact transition over each interval of ``dts`` as the map
    x -> q + (x - p) * d plus sd times a normal: returns (p, q, d, sd), with
    q, d and sd per interval.  numpy rounds these operations as the scalar
    ones do, and ``_exp_each`` gives libm's exp."""
    beta, b0 = drift.rate, drift.intercept
    # A rate so small that b0 / beta overflows acts as a zero rate: its decay
    # rounds to 1, and the mean-reverting form would take inf - inf.
    level = b0 / beta if beta else math.inf
    if math.isinf(level):
        return 0.0, b0 * dts, np.ones(len(dts)), np.sqrt(sigma * sigma * dts)
    decay = _exp_each(-beta * dts)
    sd = np.sqrt(sigma * sigma * (1.0 - decay * decay) / (2.0 * beta))
    return level, np.full(len(dts), level), decay, sd


def _exp_each(v: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element: numpy's vectorised exp does not round
    as libm's does, and the array steps must equal the scalar ones."""
    return np.fromiter(map(math.exp, v.tolist()), float, len(v))


def _em_split(dt: float, h: float) -> tuple[int, float]:
    """Euler-Maruyama substeps over dt: their number n, and the length rem of a
    partial last one landing on dt (0.0 if below rounding; the others are h)."""
    n = int(dt / h + _REL_EPS)
    rem = dt - n * h
    return (n + 1, rem) if rem >= _REL_EPS * max(h, dt) else (n, 0.0)


def _n_normals(dts, coeffs: CoefficientSpec, cfg: IntegratorConfig) -> int:
    """The normals :func:`_advance_segment` takes over the intervals ``dts``:
    one per exact-OU interval, one per Euler-Maruyama substep, none without
    noise."""
    if _noiseless(coeffs):
        return 0
    if isinstance(cfg.scheme, ExactOU):
        return len(dts)
    h = cfg.scheme.step
    return sum(_em_split(dt, h)[0] for dt in dts)


def _advance_segment(x: float, dts, coeffs: CoefficientSpec, cfg: IntegratorConfig,
                     z) -> list[float]:
    """Positions after each of the consecutive intervals ``dts`` (all > 0),
    taking the next normal from the iterator ``z`` at each noisy step:
    :func:`_n_normals` of them in all."""
    noiseless = _noiseless(coeffs)
    out = []
    if isinstance(cfg.scheme, ExactOU):
        p, qs, ds, sds = _ou_terms(np.asarray(dts, dtype=float), coeffs.drift,
                                   coeffs.diffusion.value)
        for q, d, sd in zip(qs.tolist(), ds.tolist(), sds.tolist()):
            x = q + (x - p) * d if noiseless else q + (x - p) * d + sd * next(z)
            out.append(x)
        return out

    # the bound methods call faster than the coefficient objects themselves
    drift, sigma, h = coeffs.drift.__call__, coeffs.diffusion.__call__, cfg.scheme.step
    sqrt_h = math.sqrt(h)
    for dt in dts:
        n, rem = _em_split(dt, h)
        s, sqrt_s, full = h, sqrt_h, n - (rem > 0)
        for i in range(n):
            if i == full:   # the partial step
                s, sqrt_s = rem, math.sqrt(rem)
            if noiseless:
                x = x + float(drift(x)) * s
            else:
                x = x + float(drift(x)) * s + float(sigma(x)) * sqrt_s * next(z)
        out.append(x)
    return out


def advance_diffusion(x: float, dt: float, coeffs: CoefficientSpec,
                      cfg: IntegratorConfig, rng: RandomStream) -> float:
    """Advance the diffusion from x over an interval of length dt > 0."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    cfg.validate_for(coeffs)
    n = _n_normals((dt,), coeffs, cfg)
    # a single normal skips the array round trip
    z = iter([rng.normal()] if n == 1 else rng.normals(n).tolist())
    return _advance_segment(x, (dt,), coeffs, cfg, z)[0]


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
        p, q, d, sd = _ou_terms(np.array([dt]), coeffs.drift, coeffs.diffusion.value)
        mean = q[0] + (xs - p) * d[0]
        if _noiseless(coeffs):
            return mean
        return mean + sd[0] * rng.normals(n)

    noiseless = _noiseless(coeffs)
    n_sub, rem = _em_split(dt, scheme.step)
    for s in (scheme.step,) * (n_sub - (rem > 0)) + (rem,) * (rem > 0):
        b = coeffs.drift(xs)
        if noiseless:
            xs = xs + b * s
        else:
            xs = xs + b * s + coeffs.diffusion(xs) * math.sqrt(s) * rng.normals(n)
    return xs


def apply_state_jump(x: float, coeffs: CoefficientSpec) -> float:
    """Post-event position x + a(x)."""
    return x + float(coeffs.jump(x))

