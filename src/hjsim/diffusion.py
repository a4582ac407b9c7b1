"""Integration of the diffusion between events.

Two schemes: Euler-Maruyama substepping with a fixed step (the last partial
substep lands exactly on the requested interval), and the exact Gaussian
transition for linear drift with constant noise.  With a zero diffusion
coefficient no noise draws are consumed, so the integrator is a
deterministic ODE step.

The engine's skeleton pass steps x with ``_ou_terms``, ``_em_plan`` and the
compiled ``_em_kernel``, which runs on floats; :func:`advance_diffusion_many`,
for the Monte Carlo generator check, steps arrays of positions with the same
sources.  Both forms take libm's tanh, so they step x alike bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Union

import numpy as np

from .model import CoefficientSpec, ConstantDiffusion, LinearDrift, _compiled, _exp_each
from .rng import RandomStream

__all__ = [
    "EulerMaruyama",
    "ExactOU",
    "IntegratorConfig",
    "advance_diffusion_many",
]

_REL_EPS = 1e-12
_MAX_PATH_SUBSTEPS = 10 ** 8   # per path; a noisy one holds 8.5 B per substep, 0.85 GB here


class SimulationLimitError(RuntimeError):
    """A run past a cap: too many events (the model is likely supercritical, its
    interaction spectral radius >= 1, or the horizon too long), grid samples or substeps."""


@dataclass(frozen=True)
class EulerMaruyama:
    """Fixed-step scheme x <- x + b(x)*h + sigma(x)*sqrt(h)*xi."""

    step: float

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be a finite positive number")


@dataclass(frozen=True)
class ExactOU:
    """Exact Gaussian transition; admissible only for linear drift with constant sigma."""


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
    d and sd per interval, and q per interval, or p itself where the drift's
    level is finite.  numpy rounds these operations as the scalar ones do,
    and ``_exp_each`` gives libm's exp."""
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
    sd[decay == 1.0] = np.sqrt(sigma * sigma * dts[decay == 1.0])
    return level, level, decay, sd


def _check_substeps(span: float, scheme: Scheme) -> None:
    """Refuse Euler-Maruyama over ``span`` in more than ``_MAX_PATH_SUBSTEPS`` substeps."""
    if isinstance(scheme, EulerMaruyama) and not span / scheme.step <= _MAX_PATH_SUBSTEPS:
        raise SimulationLimitError(f"an Euler-Maruyama step of {scheme.step!r} over {span!r} "
                                   f"gives {span / scheme.step:.3g} substeps, more than 1e+08")


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
    full = np.floor(dts / h + _REL_EPS)
    rem = dts - full * h
    return full.astype(np.intp), np.where(rem >= _REL_EPS * np.maximum(h, dts), rem, 0.0)


# x + b(x)*s + sigma(x)*sqrt(s)*z over each interval of a plan, rounded as
# the coefficient objects round it: whole steps h first, then the partial one
_EM_KERNEL = """\
from itertools import islice
from math import sqrt


def f(x, plan, h, z, out):
    sqrt_h, append = sqrt(h), out.append
    for full, rem in plan:
        for {z_h} in {whole}:
            x = x + ({b}) * h{noise_h}
        if rem:
            x = x + ({b}) * rem{noise_rem}
        append(x)
    return x
"""


def _em_kernel(coeffs: CoefficientSpec, arrays: bool = False):
    """The Euler-Maruyama stepper of ``coeffs``, compiled once per
    coefficient pair: ``f(x, plan, h, z, out)`` steps x over each
    (whole steps, partial step) pair of ``plan`` (:func:`_em_plan`), taking
    a normal from the iterator ``z`` at each substep (none without noise),
    appends x after each interval to ``out`` and returns it.  x is a float,
    and the kernel is compiled with :func:`~hjsim.model._compiled`'s float
    names (libm's tanh); with ``arrays``, x is an array that ``z`` gives an
    array of normals for."""
    b, sigma = coeffs.drift.expr(), coeffs.diffusion.expr()
    noisy = not _noiseless(coeffs)
    return _compiled(_EM_KERNEL.format(
        b=b, z_h="z_i" if noisy else "_",
        whole="islice(z, full)" if noisy else "range(full)",
        noise_h=f" + ({sigma}) * sqrt_h * z_i" if noisy else "",
        noise_rem=f" + ({sigma}) * sqrt(rem) * next(z)" if noisy else ""), not arrays)


def advance_diffusion_many(xs: np.ndarray, dt: float, coeffs: CoefficientSpec,
                           cfg: IntegratorConfig, rng: RandomStream) -> np.ndarray:
    """Vectorised advance of many independent positions over the same dt.

    Draws one normal per position and exact-OU step or Euler-Maruyama
    substep, in position order; the marginal law of each output matches a
    path's step over dt.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    _check_substeps(dt, cfg.scheme)
    xs = np.array(xs, dtype=float, copy=True)
    n = len(xs)
    scheme = cfg.scheme
    if isinstance(scheme, ExactOU):
        cfg.validate_for(coeffs)
        p, q, d, sd = _ou_terms(np.array([dt]), coeffs.drift, coeffs.diffusion.value)
        mean = q + (xs - p) * d
        if _noiseless(coeffs):
            return mean
        return mean + sd * rng.normals(n)
    full, rem = _em_plan(np.array([dt]), scheme.step)
    return _em_kernel(coeffs, arrays=True)(xs, zip(memoryview(full), memoryview(rem)),
                                           scheme.step, map(rng.normals, repeat(n)), [])

