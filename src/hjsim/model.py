"""Parametric description of the coupled diffusion / point-process model.

The state is z = (x, y) with x a scalar diffusion position and y an M x M
memory matrix.  Component i of the point process fires at rate
f_i(sum_j y[i, j]); between events every entry y[i, j] decays at rate
alpha[i, j], and when component j fires, column j gains c[:, j] while the
diffusion is displaced by a(x).

Only closed-form parametric families are accepted for the rate functions
and the coefficients.  Every family exposes its exact Lipschitz constant
and exact confinement rates; the thinning bound and the drift
verification both rely on those being exact rather than estimated.

JSON model schema (also used by the CLI)::

    {
      "M": 2,
      "rates": [
        {"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0},
        {"type": "sigmoid", "height": 2.0, "steepness": 1.0, "center": 0.0}
      ],
      "kernel": {"c": [c11, c12, c21, c22],          # row-major M*M
                 "alpha": [a11, a12, a21, a22]},
      "coefficients": {
        "drift":     {"type": "linear", "rate": 1.0, "intercept": 0.0},
        "diffusion": {"type": "constant", "value": 1.0},
        "jump":      {"type": "linear_damping", "eta": 0.5}
      },
      "initial": {"x": 0.0, "y": [y11, y12, y21, y22]}  # row-major
    }

Matrices may equivalently be written as nested row lists.  Rate types:
``affine_clipped`` (max(floor, intercept + slope*u)), ``sigmoid``
(height / (1 + exp(-steepness*(u - center)))), ``constant``.  Drift types:
``linear`` (intercept - rate*x) and ``bounded_smooth``
(-amplitude*tanh(steepness*x)).  Diffusion types: ``constant`` and
``smooth_bounded`` (lo + (hi-lo)/(1+x^2)).  Jump types: ``constant``,
``linear_damping`` (-eta*x) and ``power_bounded``
(coeff*x*(1+x^2)^((exponent-1)/2), so |a(x)| <= |coeff|*|x|^exponent).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from scipy.special import expit

__all__ = [
    "ConfigError",
    "DegenerateKernelError",
    "AffineClippedRate",
    "SigmoidRate",
    "ConstantRate",
    "RateFunction",
    "LinearDrift",
    "BoundedSmoothDrift",
    "ConstantDiffusion",
    "SmoothBoundedDiffusion",
    "ConstantJump",
    "LinearDampingJump",
    "PowerBoundedJump",
    "CoefficientSpec",
    "KernelMatrix",
    "State",
    "ModelSpec",
    "AssumptionReport",
    "check_assumptions",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "state_from_dict",
    "state_to_dict",
    "canonical_json",
    "model_digest",
]

# Strict positivity floor for rate evaluations: the sigmoid underflows to
# exactly 0.0 around u ~ -745/steepness, which would break thinning.
_TINY = float(np.finfo(float).tiny)


class ConfigError(ValueError):
    """Invalid model or run configuration; ``field`` names the first offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DegenerateKernelError(ValueError):
    """Operation requires a non-degenerate kernel column (distinct decays, nonzero amplitudes)."""


def _finite(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(field, message)


def _get_number(d: dict, key: str, field: str) -> float:
    _require(key in d, f"{field}.{key}", "missing required field")
    v = d[key]
    _require(_finite(v), f"{field}.{key}", "must be a finite number")
    return float(v)


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineClippedRate:
    """u -> max(floor, intercept + slope*u); strictly positive, Lipschitz |slope|."""

    floor: float
    intercept: float
    slope: float

    kind: ClassVar[str] = "affine_clipped"

    def __post_init__(self):
        if not (self.floor > 0 and math.isfinite(self.floor)):
            raise ValueError("floor must be a finite positive number")
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise ValueError("intercept and slope must be finite")

    def __call__(self, u):
        return np.maximum(self.floor, self.intercept + self.slope * u)

    def lipschitz_constant(self) -> float:
        return abs(self.slope)

    def to_dict(self) -> dict:
        return {"type": self.kind, "floor": self.floor,
                "intercept": self.intercept, "slope": self.slope}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "AffineClippedRate":
        floor = _get_number(d, "floor", field)
        _require(floor > 0, f"{field}.floor", "must be > 0")
        return cls(floor, _get_number(d, "intercept", field), _get_number(d, "slope", field))


@dataclass(frozen=True)
class SigmoidRate:
    """u -> height * expit(steepness*(u - center)); Lipschitz height*steepness/4.

    Evaluations are floored at the smallest positive double so the output
    stays strictly positive even where the sigmoid underflows.
    """

    height: float
    steepness: float
    center: float

    kind: ClassVar[str] = "sigmoid"

    def __post_init__(self):
        if not (self.height > 0 and math.isfinite(self.height)):
            raise ValueError("height must be a finite positive number")
        if not (self.steepness > 0 and math.isfinite(self.steepness)):
            raise ValueError("steepness must be a finite positive number")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")

    def __call__(self, u):
        return np.maximum(_TINY, self.height * expit(self.steepness * (u - self.center)))

    def lipschitz_constant(self) -> float:
        # max of height*steepness*s*(1-s) over s in (0,1), attained at s = 1/2
        return self.height * self.steepness / 4.0

    def to_dict(self) -> dict:
        return {"type": self.kind, "height": self.height,
                "steepness": self.steepness, "center": self.center}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "SigmoidRate":
        height = _get_number(d, "height", field)
        steep = _get_number(d, "steepness", field)
        _require(height > 0, f"{field}.height", "must be > 0")
        _require(steep > 0, f"{field}.steepness", "must be > 0")
        return cls(height, steep, _get_number(d, "center", field))


@dataclass(frozen=True)
class ConstantRate:
    """u -> level, a strictly positive constant rate."""

    level: float

    kind: ClassVar[str] = "constant"

    def __post_init__(self):
        if not (self.level > 0 and math.isfinite(self.level)):
            raise ValueError("level must be a finite positive number")

    def __call__(self, u):
        return self.level + 0.0 * u

    def lipschitz_constant(self) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"type": self.kind, "level": self.level}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "ConstantRate":
        level = _get_number(d, "level", field)
        _require(level > 0, f"{field}.level", "must be > 0")
        return cls(level)


RateFunction = Union[AffineClippedRate, SigmoidRate, ConstantRate]

_RATE_KINDS = {c.kind: c for c in (AffineClippedRate, SigmoidRate, ConstantRate)}


# ---------------------------------------------------------------------------
# Diffusion coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearDrift:
    """b(x) = intercept - rate*x.

    ``rate`` may be negative (a repelling drift); such a model simulates
    fine but is classified outside both confinement frames.
    """

    rate: float
    intercept: float = 0.0

    kind: ClassVar[str] = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.intercept)):
            raise ValueError("rate and intercept must be finite")

    def __call__(self, x):
        return self.intercept - self.rate * x

    def lipschitz_constant(self) -> float:
        return abs(self.rate)

    def min_quadratic_confinement(self, r: float) -> float:
        """Exact inf over |x| > r of -x*b(x)/x^2 (the quadratic pull-back rate)."""
        return self.rate - abs(self.intercept) / r

    def min_linear_confinement(self, r: float) -> float:
        """Exact inf over |x| > r of -x*b(x)."""
        if self.rate < 0:
            return -math.inf
        if self.rate == 0:
            return 0.0 if self.intercept == 0 else -math.inf
        # -x*b(x) = rate*x^2 - intercept*x; minimum over |x| > r sits on the
        # branch where the intercept term hurts.
        vertex = abs(self.intercept) / (2.0 * self.rate)
        s = max(r, vertex) if vertex > r else r
        return self.rate * s * s - abs(self.intercept) * s

    def to_dict(self) -> dict:
        return {"type": self.kind, "rate": self.rate, "intercept": self.intercept}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "LinearDrift":
        return cls(_get_number(d, "rate", field),
                   float(d.get("intercept", 0.0)) if _finite(d.get("intercept", 0.0))
                   else _get_number(d, "intercept", field))


@dataclass(frozen=True)
class BoundedSmoothDrift:
    """b(x) = -amplitude * tanh(steepness * x); bounded, smooth, inward."""

    amplitude: float
    steepness: float = 1.0

    kind: ClassVar[str] = "bounded_smooth"

    def __post_init__(self):
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise ValueError("amplitude must be a finite positive number")
        if not (self.steepness > 0 and math.isfinite(self.steepness)):
            raise ValueError("steepness must be a finite positive number")

    def __call__(self, x):
        return -self.amplitude * np.tanh(self.steepness * x)

    def lipschitz_constant(self) -> float:
        return self.amplitude * self.steepness

    def min_quadratic_confinement(self, r: float) -> float:
        # -x*b(x)/x^2 = amplitude*tanh(steepness*|x|)/|x| -> 0 at infinity:
        # a bounded drift never sustains a quadratic pull-back.
        return 0.0

    def min_linear_confinement(self, r: float) -> float:
        # amplitude*|x|*tanh(steepness*|x|) is increasing in |x|
        return self.amplitude * r * math.tanh(self.steepness * r)

    def to_dict(self) -> dict:
        return {"type": self.kind, "amplitude": self.amplitude, "steepness": self.steepness}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "BoundedSmoothDrift":
        amp = _get_number(d, "amplitude", field)
        steep = _get_number(d, "steepness", field) if "steepness" in d else 1.0
        _require(amp > 0, f"{field}.amplitude", "must be > 0")
        _require(steep > 0, f"{field}.steepness", "must be > 0")
        return cls(amp, steep)


Drift = Union[LinearDrift, BoundedSmoothDrift]
_DRIFT_KINDS = {c.kind: c for c in (LinearDrift, BoundedSmoothDrift)}


@dataclass(frozen=True)
class ConstantDiffusion:
    """sigma(x) = value.  value = 0 is allowed for deterministic test flows,
    but then the model fails the strict ellipticity check (see
    :func:`check_assumptions`)."""

    value: float

    kind: ClassVar[str] = "constant"

    def __post_init__(self):
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValueError("value must be a finite nonnegative number")

    def __call__(self, x):
        return self.value + 0.0 * x

    def sigma_sq_bounds(self) -> tuple[float, float]:
        return (self.value ** 2, self.value ** 2)

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "ConstantDiffusion":
        v = _get_number(d, "value", field)
        _require(v >= 0, f"{field}.value", "must be >= 0")
        return cls(v)


@dataclass(frozen=True)
class SmoothBoundedDiffusion:
    """sigma(x) = lo + (hi - lo)/(1 + x^2); smooth with lo <= sigma <= hi."""

    lo: float
    hi: float

    kind: ClassVar[str] = "smooth_bounded"

    def __post_init__(self):
        if not (0 < self.lo <= self.hi and math.isfinite(self.hi)):
            raise ValueError("need 0 < lo <= hi, both finite")

    def __call__(self, x):
        return self.lo + (self.hi - self.lo) / (1.0 + x * x)

    def sigma_sq_bounds(self) -> tuple[float, float]:
        return (self.lo ** 2, self.hi ** 2)

    def to_dict(self) -> dict:
        return {"type": self.kind, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "SmoothBoundedDiffusion":
        lo = _get_number(d, "lo", field)
        hi = _get_number(d, "hi", field)
        _require(0 < lo <= hi, field, "needs 0 < lo <= hi")
        return cls(lo, hi)


Diffusion = Union[ConstantDiffusion, SmoothBoundedDiffusion]
_DIFFUSION_KINDS = {c.kind: c for c in (ConstantDiffusion, SmoothBoundedDiffusion)}


# ---------------------------------------------------------------------------
# Jump maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantJump:
    """a(x) = size."""

    size: float

    kind: ClassVar[str] = "constant"

    def __post_init__(self):
        if not math.isfinite(self.size):
            raise ValueError("size must be finite")

    def __call__(self, x):
        return self.size + 0.0 * x

    def power_envelope(self):
        """(C, eta) with |a(x)| <= C*|x|**eta and eta < 1, when representable."""
        return (abs(self.size), 0.0)

    def to_dict(self) -> dict:
        return {"type": self.kind, "size": self.size}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "ConstantJump":
        return cls(_get_number(d, "size", field))


@dataclass(frozen=True)
class LinearDampingJump:
    """a(x) = -eta*x with 0 <= eta <= 2 (the post-jump point |x + a(x)| <= |x|)."""

    eta: float

    kind: ClassVar[str] = "linear_damping"

    def __post_init__(self):
        if not (0 <= self.eta <= 2):
            raise ValueError("eta must lie in [0, 2]")

    def __call__(self, x):
        return -self.eta * x

    def power_envelope(self):
        return (0.0, 0.0) if self.eta == 0 else None

    def to_dict(self) -> dict:
        return {"type": self.kind, "eta": self.eta}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "LinearDampingJump":
        eta = _get_number(d, "eta", field)
        _require(0 <= eta <= 2, f"{field}.eta", "must lie in [0, 2]")
        return cls(eta)


@dataclass(frozen=True)
class PowerBoundedJump:
    """a(x) = coeff * x * (1 + x^2)^((exponent-1)/2), so |a(x)| <= |coeff|*|x|**exponent."""

    coeff: float
    exponent: float

    kind: ClassVar[str] = "power_bounded"

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError("coeff must be finite")
        if not (self.exponent < 1 and math.isfinite(self.exponent)):
            raise ValueError("exponent must be finite and < 1")

    def __call__(self, x):
        return self.coeff * x * (1.0 + x * x) ** ((self.exponent - 1.0) / 2.0)

    def power_envelope(self):
        return (abs(self.coeff), self.exponent)

    def to_dict(self) -> dict:
        return {"type": self.kind, "coeff": self.coeff, "exponent": self.exponent}

    @classmethod
    def from_dict(cls, d: dict, field: str) -> "PowerBoundedJump":
        coeff = _get_number(d, "coeff", field)
        expo = _get_number(d, "exponent", field)
        _require(expo < 1, f"{field}.exponent", "must be < 1")
        return cls(coeff, expo)


JumpMap = Union[ConstantJump, LinearDampingJump, PowerBoundedJump]
_JUMP_KINDS = {c.kind: c for c in (ConstantJump, LinearDampingJump, PowerBoundedJump)}


@dataclass(frozen=True)
class CoefficientSpec:
    """Diffusion coefficients b, sigma and the event displacement a."""

    drift: Drift
    diffusion: Diffusion
    jump: JumpMap

    def to_dict(self) -> dict:
        return {"drift": self.drift.to_dict(),
                "diffusion": self.diffusion.to_dict(),
                "jump": self.jump.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, field: str = "coefficients") -> "CoefficientSpec":
        _require(isinstance(d, dict), field, "must be an object")
        parts = []
        for key, registry in (("drift", _DRIFT_KINDS), ("diffusion", _DIFFUSION_KINDS),
                              ("jump", _JUMP_KINDS)):
            _require(key in d, f"{field}.{key}", "missing required field")
            parts.append(_variant_from_dict(d[key], registry, f"{field}.{key}"))
        return cls(*parts)


def _variant_from_dict(d, registry: dict, field: str):
    """The family in ``registry`` named by d["type"], built from d; ``field``
    names d in errors."""
    _require(isinstance(d, dict), field, "must be an object with a 'type' tag")
    _require("type" in d, f"{field}.type", "missing required field")
    kind = d["type"]
    _require(isinstance(kind, str) and kind in registry, f"{field}.type",
             f"unknown type {kind!r}; expected one of {sorted(registry)}")
    return registry[kind].from_dict(d, field)


# ---------------------------------------------------------------------------
# Kernel matrix and state
# ---------------------------------------------------------------------------


def _as_matrix(raw, m: int, field: str) -> np.ndarray:
    """An (m, m) matrix from m*m numbers (row-major) or m rows of m numbers."""
    raw = raw.tolist() if isinstance(raw, np.ndarray) else raw
    _require(isinstance(raw, (list, tuple)), field, "must be a list of numbers or of rows")
    if raw and all(isinstance(row, (list, tuple)) for row in raw):
        _require(len(raw) == m and all(len(row) == m for row in raw), field,
                 f"expected {m} rows of {m} entries")
        raw = [v for row in raw for v in row]
    else:
        _require(len(raw) == m * m, field, f"expected {m * m} entries (row-major), got {len(raw)}")
    for k, v in enumerate(raw):
        _require(_finite(v), f"{field}[{k // m}][{k % m}]", "must be a finite number")
    return np.array(raw, dtype=float).reshape(m, m)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Event amplitudes ``c`` (signed; negative entries inhibit) and decay rates ``alpha`` (> 0)."""

    c: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("c must be a square matrix")
        if alpha.shape != c.shape:
            raise ValueError("alpha must have the same shape as c")
        if not np.all(np.isfinite(c)):
            raise ValueError("c entries must be finite")
        if not (np.all(np.isfinite(alpha)) and np.all(alpha > 0)):
            raise ValueError("alpha entries must be finite and > 0")
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "alpha", _freeze(alpha))

    @property
    def n_components(self) -> int:
        return self.c.shape[0]

    def degenerate_columns(self) -> list[tuple[int, str]]:
        """Columns (1-based) violating the non-degeneracy normalisation:
        repeated decay rates or zero amplitudes within the column."""
        out = []
        m = self.n_components
        for j in range(m):
            col_alpha = self.alpha[:, j]
            if len(np.unique(col_alpha)) != m:
                out.append((j + 1, "repeated alpha"))
            elif np.any(self.c[:, j] == 0.0):
                out.append((j + 1, "zero amplitude"))
        return out

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degenerate_columns())

    def to_dict(self) -> dict:
        return {"c": [float(v) for v in self.c.ravel()],
                "alpha": [float(v) for v in self.alpha.ravel()]}

    @classmethod
    def from_dict(cls, d: dict, m: int, field: str = "kernel") -> "KernelMatrix":
        _require(isinstance(d, dict), field, "must be an object")
        _require("c" in d, f"{field}.c", "missing required field")
        _require("alpha" in d, f"{field}.alpha", "missing required field")
        c = _as_matrix(d["c"], m, f"{field}.c")
        alpha = _as_matrix(d["alpha"], m, f"{field}.alpha")
        for i in range(m):
            for j in range(m):
                _require(alpha[i, j] > 0, f"{field}.alpha[{i}][{j}]", "must be > 0")
        return cls(c, alpha)


@dataclass(frozen=True, eq=False)
class State:
    """Process state z = (x, y): diffusion position and M x M memory matrix."""

    x: float
    y: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError("x must be finite")
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise ValueError("y must be a square matrix")
        if not np.all(np.isfinite(y)):
            raise ValueError("y entries must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", _freeze(y))

    @property
    def n_components(self) -> int:
        return self.y.shape[0]


def state_to_dict(state: State) -> dict:
    return {"x": state.x, "y": [float(v) for v in state.y.ravel()]}


def state_from_dict(d: dict, m: int, field: str = "initial") -> State:
    _require(isinstance(d, dict), field, "must be an object")
    x = _get_number(d, "x", field)
    _require("y" in d, f"{field}.y", "missing required field")
    y = _as_matrix(d["y"], m, f"{field}.y")
    return State(x, y)


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Complete model: rate functions, kernel, diffusion coefficients, initial state."""

    rates: tuple[RateFunction, ...]
    kernel: KernelMatrix
    coefficients: CoefficientSpec
    initial: State

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(self.rates))
        m = self.kernel.n_components
        if len(self.rates) != m:
            raise ValueError(f"expected {m} rate functions, got {len(self.rates)}")
        if self.initial.n_components != m:
            raise ValueError("initial y dimension does not match the kernel")

    @property
    def n_components(self) -> int:
        return self.kernel.n_components

    def lipschitz_constants(self) -> np.ndarray:
        return np.array([f.lipschitz_constant() for f in self.rates])

    def __eq__(self, other):
        if not isinstance(other, ModelSpec):
            return NotImplemented
        return model_to_dict(self) == model_to_dict(other)


def model_to_dict(model: ModelSpec) -> dict:
    return {
        "M": model.n_components,
        "rates": [f.to_dict() for f in model.rates],
        "kernel": model.kernel.to_dict(),
        "coefficients": model.coefficients.to_dict(),
        "initial": state_to_dict(model.initial),
    }


def model_from_dict(d: dict) -> ModelSpec:
    _require(isinstance(d, dict), "<root>", "model config must be a JSON object")
    _require("M" in d, "M", "missing required field")
    m = d["M"]
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "M", "must be a positive integer")
    _require("rates" in d, "rates", "missing required field")
    raw_rates = d["rates"]
    _require(isinstance(raw_rates, list), "rates", "must be an array")
    _require(len(raw_rates) == m, "rates",
             f"expected {m} rate functions, got {len(raw_rates)}")
    rates = [_variant_from_dict(rd, _RATE_KINDS, f"rates[{i}]") for i, rd in enumerate(raw_rates)]
    _require("kernel" in d, "kernel", "missing required field")
    kernel = KernelMatrix.from_dict(d["kernel"], m)
    _require("coefficients" in d, "coefficients", "missing required field")
    coeffs = CoefficientSpec.from_dict(d["coefficients"])
    _require("initial" in d, "initial", "missing required field")
    initial = state_from_dict(d["initial"], m)
    return ModelSpec(tuple(rates), kernel, coeffs, initial)


def load_model(path: str) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"not valid JSON: {exc}") from exc
    return model_from_dict(d)


def canonical_json(obj) -> str:
    """Deterministic JSON serialisation used for digests (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def model_digest(model: ModelSpec) -> str:
    return hashlib.sha256(canonical_json(model_to_dict(model)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Assumption checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the confinement-frame scan plus ellipticity and stability flags.

    ``frame`` is ``"exponential"``, ``"polynomial"`` or ``"neither"``.  For the
    exponential frame the witnesses are (d, r) with x*b(x) <= -d*x^2 beyond
    radius r; for the polynomial frame (gamma, r) with x*b(x) <= -gamma, plus
    the documented admissible exponent interval ``m_interval``.
    """

    frame: str
    d: float | None
    gamma: float | None
    r: float | None
    m_interval: tuple[float, float] | None
    sigma_sq_bounds: tuple[float, float]
    sigma_bounds_ok: bool
    spectral_radius: float
    stability_ok: bool
    degenerate_kernel: bool
    violating_point: float | None
    notes: str


def _scan_grid(scan_radius: float, grid_points: int) -> np.ndarray:
    half = np.linspace(scan_radius / grid_points, scan_radius, grid_points)
    return np.concatenate([-half[::-1], half])


def check_assumptions(model: ModelSpec, scan_radius: float, grid_points: int = 201, *,
                      spectral_radius: float | None = None) -> AssumptionReport:
    """Classify the model into a confinement frame by scanning the defining
    inequalities on a symmetric grid over [-scan_radius, scan_radius].

    The inner exclusion radius r is searched over dyadic fractions of the
    scan radius; the drift rates use the families' exact formulas while the
    jump-map inequalities are certified on the grid.  A positive quadratic
    rate d is required for the exponential classification (d = 0 is treated
    as inconclusive).  ``spectral_radius`` is that of the interaction
    matrix, for a caller that has already computed it.
    """
    if not scan_radius > 0:
        raise ValueError("scan_radius must be > 0")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")

    coeffs = model.coefficients
    drift, jump = coeffs.drift, coeffs.jump
    xs = _scan_grid(scan_radius, grid_points)
    r_candidates = [scan_radius * 2.0 ** (-k) for k in range(8, 0, -1)]
    sig_lo, sig_hi = coeffs.diffusion.sigma_sq_bounds()
    notes: list[str] = []

    from . import stability  # local import: stability builds on this module

    rho = (stability.spectral_radius(stability.interaction_matrix(model))
           if spectral_radius is None else spectral_radius)
    stability_ok = bool(rho < 1.0)
    degenerate = model.kernel.is_degenerate
    if degenerate:
        notes.append("degenerate kernel: " + "; ".join(
            f"column {j} ({why})" for j, why in model.kernel.degenerate_columns()))

    def jump_inward_ok(pts: np.ndarray) -> bool:
        a = jump(pts)
        return bool(np.max(2.0 * pts * a + a * a) <= 1e-12 * max(1.0, scan_radius ** 2))

    def jump_contraction_ok(pts: np.ndarray) -> bool:
        return bool(np.max(np.abs(pts + jump(pts)) - np.abs(pts)) <= 1e-12 * max(1.0, scan_radius))

    # exponential frame: quadratic drift pull-back plus one of the jump conditions
    for r in r_candidates:
        d = drift.min_quadratic_confinement(r)
        if d <= 0:
            continue
        pts = xs[np.abs(xs) > r]
        envelope = jump.power_envelope()
        if jump_inward_ok(pts) or envelope is not None:
            notes.append("exponential classification requires d > 0; "
                         "d = 0 is treated as inconclusive")
            return AssumptionReport(
                frame="exponential", d=float(d), gamma=None, r=float(r),
                m_interval=None, sigma_sq_bounds=(sig_lo, sig_hi),
                sigma_bounds_ok=sig_lo > 0, spectral_radius=rho,
                stability_ok=stability_ok, degenerate_kernel=degenerate,
                violating_point=None, notes="; ".join(notes))

    # polynomial frame: linear drift pull-back above sigma_hi/2 plus radial contraction
    for r in r_candidates:
        gamma = drift.min_linear_confinement(r)
        if not gamma > sig_hi / 2.0:
            continue
        pts = xs[np.abs(xs) > r]
        if jump_contraction_ok(pts):
            upper = 1.0 + 2.0 * gamma / (sig_hi ** 2) if sig_hi > 0 else math.inf
            m_interval = (2.0, upper) if upper > 2.0 else None
            if m_interval is None:
                notes.append("documented exponent interval (2, 1 + 2*gamma/sigma_hi^2) is empty")
            return AssumptionReport(
                frame="polynomial", d=None, gamma=float(gamma), r=float(r),
                m_interval=m_interval, sigma_sq_bounds=(sig_lo, sig_hi),
                sigma_bounds_ok=sig_lo > 0, spectral_radius=rho,
                stability_ok=stability_ok, degenerate_kernel=degenerate,
                violating_point=None, notes="; ".join(notes))

    # neither: report the innermost grid point past the largest candidate radius
    # at which the drift fails to pull inward (or, failing that, the jump map).
    r_max = r_candidates[-1]
    pts = xs[np.abs(xs) > r_max]
    order = np.argsort(np.abs(pts))
    viol = None
    for idx in order:
        x = float(pts[idx])
        if x * float(drift(x)) >= 0.0:
            viol = x
            notes.append(f"x*b(x) >= 0 at x = {x:.6g}")
            break
    if viol is None:
        for idx in order:
            x = float(pts[idx])
            a = float(jump(x))
            if 2 * x * a + a * a > 0 and abs(x + a) - abs(x) > 0:
                viol = x
                notes.append(f"jump conditions fail at x = {x:.6g}")
                break
    if viol is None:
        notes.append("drift confinement too weak for either frame on the scanned grid")
    return AssumptionReport(
        frame="neither", d=None, gamma=None, r=None, m_interval=None,
        sigma_sq_bounds=(sig_lo, sig_hi), sigma_bounds_ok=sig_lo > 0,
        spectral_radius=rho, stability_ok=stability_ok,
        degenerate_kernel=degenerate, violating_point=viol, notes="; ".join(notes))
