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

from .model import CoefficientSpec, ConstantDiffusion, LinearDrift, _compiled
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
# substeps a run may count: beyond 2**53 the counts are no longer exact floats
_MAX_SUBSTEPS = 2 ** 53


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
    # where the decay rounds to 1, 1 - decay^2 is 0: the noise is the
    # zero-rate one to first order in beta * dt
    sd = np.where(decay == 1.0, np.sqrt(sigma * sigma * dts), sd)
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


def _em_plan(dts: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_em_split` of every interval of ``dts``, with its IEEE
    operations on arrays: the number of whole steps h in each interval, and
    the partial last step (0.0 if none)."""
    total = float(dts.sum())
    if not total <= _MAX_SUBSTEPS * h:
        raise ValueError(f"an Euler-Maruyama step of {h!r} gives more than {_MAX_SUBSTEPS} "
                         f"substeps over {total!r}")
    full = np.floor(dts / h + _REL_EPS)
    rem = dts - full * h
    return full.astype(np.intp), np.where(rem >= _REL_EPS * np.maximum(h, dts), rem, 0.0)


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


# x + b(x)*s + sigma(x)*sqrt(s)*z over each interval of a plan, rounded as
# the coefficient objects round it: whole steps h first, then the partial one
_EM_KERNEL = """\
from itertools import islice
from math import sqrt


def f(x, plan, h, z, out):
    sqrt_h, append = sqrt(h), out.append
    for full, rem in plan:
        for {z_h} in {whole}:
            x = x + float({b}) * h{noise_h}
        if rem:
            x = x + float({b}) * rem{noise_rem}
        append(x)
    return x
"""


def _em_kernel(coeffs: CoefficientSpec):
    """The scalar Euler-Maruyama stepper of ``coeffs``, compiled once per
    coefficient pair: ``f(x, plan, h, z, out)`` steps x over each
    (whole steps, partial step) pair of ``plan`` (:func:`_em_plan`), taking
    a normal from the iterator ``z`` at each substep (none without noise),
    appends x after each interval to ``out`` and returns it."""
    b, sigma = coeffs.drift.expr(), coeffs.diffusion.expr()
    noisy = not _noiseless(coeffs)
    return _compiled(_EM_KERNEL.format(
        b=b, z_h="z_i" if noisy else "_", whole="islice(z, full)" if noisy else "range(full)",
        noise_h=f" + float({sigma}) * sqrt_h * z_i" if noisy else "",
        noise_rem=f" + float({sigma}) * sqrt(rem) * next(z)" if noisy else ""))


def _advance_segment(x: float, dts, coeffs: CoefficientSpec, cfg: IntegratorConfig,
                     z) -> list[float]:
    """Positions after each of the consecutive intervals ``dts`` (all > 0),
    taking the next normal from the iterator ``z`` at each noisy step:
    :func:`_n_normals` of them in all."""
    out = []
    if isinstance(cfg.scheme, ExactOU):
        noiseless = _noiseless(coeffs)
        p, qs, ds, sds = _ou_terms(np.asarray(dts, dtype=float), coeffs.drift,
                                   coeffs.diffusion.value)
        for q, d, sd in zip(qs.tolist(), ds.tolist(), sds.tolist()):
            x = q + (x - p) * d if noiseless else q + (x - p) * d + sd * next(z)
            out.append(x)
        return out
    full, rem = _em_plan(np.asarray(dts, dtype=float), cfg.scheme.step)
    _em_kernel(coeffs)(x, zip(memoryview(full), memoryview(rem)), cfg.scheme.step, z, out)
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

