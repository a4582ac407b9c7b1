"""Parametric description of the coupled diffusion / point-process model.

The state is z = (x, y) with x a scalar diffusion position and y an M x M
memory matrix.  Component i of the point process fires at rate
f_i(sum_j y[i, j]); between events every entry y[i, j] decays at rate
alpha[i, j], and when component j fires, column j gains c[:, j] while the
diffusion is displaced by a(x).

Only closed-form parametric families are accepted for the rate functions
and the coefficients.  The rates expose their exact Lipschitz constants
and the drifts their exact confinement rates; the thinning bound and the
drift verification both rely on those being exact rather than estimated.
Each family's map is one ``formula``, an expression in x and its
parameters, which compiles to a function of arrays and floats alike and,
by :meth:`_Family.on_floats`, to a faster one of one float with the same
bits (the Euler-Maruyama kernel inlines the drift's and the noise's); a
formula may use only the names :func:`_compiled` provides.

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

A family's dataclass fields are its JSON parameters, in order, and its
constructor is their only range check.  A parameter with a default (the
linear drift's ``intercept``, the bounded drift's ``steepness``) may be
left out of a config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "ConfigError",
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
    "state_from_dict",
    "state_to_dict",
    "canonical_json",
    "model_digest",
    "expit",
]

# Strict positivity floor for rate evaluations: the sigmoid underflows to
# exactly 0.0 around u ~ -745/steepness, which would break thinning.
_TINY = float(np.finfo(float).tiny)
# The largest M a model may have.  A path thinned on its own runs code
# unrolled over the M x M memory and compiled once per M and noise kind: the
# candidate loop took 0.25-0.31 s and 17 MB of peak RSS at M = 64, growing as
# M^2, and the runtime's evaluators, compiled only for a caller that uses
# them, 0.16-0.17 s and 31 MB more (Python 3.11, 2-core Xeon).
_MAX_COMPONENTS = 64
# complex exp at x + 0j equals math.exp(x) up to here (checked on 3.2 million
# values; glibc's cexp rescales from x > 709 on)
_CEXP_EXACT = 700.0


def _exp_each(v: np.ndarray, overflow: float | None = None) -> np.ndarray:
    """``math.exp`` of every element of a 1-D array: numpy's exp does not round
    as libm's does.  Its complex exp calls libm's, which at a zero imaginary
    part is exp of the real part times cos 0 = 1: 8 times faster than a call
    per element.  Above about 709 glibc's complex exp rescales and differs, and
    it drops a NaN's sign; there each element takes ``math.exp``, which raises
    ``OverflowError`` where exp overflows unless ``overflow`` stands for it."""
    out = np.exp(np.minimum(v, _CEXP_EXACT), dtype=complex).real.copy()
    for i in np.flatnonzero(~(v <= _CEXP_EXACT)).tolist():   # and every NaN
        try:
            out[i] = math.exp(v[i])
        except OverflowError:
            if overflow is None:
                raise
            out[i] = overflow
    return out


def _log_each(v: np.ndarray) -> np.ndarray:
    """``math.log`` of every element, for positive normal floats outside [0.5, 2) (where
    glibc's clog takes log1p): numpy's complex log calls libm's, its real log does not."""
    return np.log(v + 0j).real


def expit(v):
    """1 / (1 + exp(-v)) with libm's exp, as ``scipy.special.expit`` computes it: 0 where
    exp(-v) overflows, a NaN with the bits of -v, and a float64 for a float or 0-d input."""
    e = _exp_each(-np.ravel(v), overflow=math.inf).reshape(np.shape(v))
    return (1.0 / (1.0 + e))[()]


class ConfigError(ValueError):
    """Invalid model or run configuration; ``field`` names the first offending entry.

    A family's constructor names only the parameter, or nothing when its
    parameters fail together; ``from_dict`` prefixes the variant's path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
        self._message = message


def _finite(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(field, message)


def _field(d: dict, key: str, parent: str = ""):
    """d[key], or a ConfigError naming ``parent.key`` if it is missing."""
    name = f"{parent}.{key}" if parent else key
    _require(key in d, name, "missing required field")
    return d[key]


def _get_number(d: dict, key: str, field: str) -> float:
    v = _field(d, key, field)
    _require(_finite(v), f"{field}.{key}", "must be a finite number")
    return float(v)


def _expit_float(v: float) -> float:
    """:func:`expit` of one float, as a float with the same bits."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _tanh_each(v):
    """``math.tanh`` of every element, and a float64 for a float or 0-d input, as
    :func:`expit`: numpy's tanh does not round as libm's does."""
    flat = np.ravel(v).tolist()
    return np.fromiter(map(math.tanh, flat), float, len(flat)).reshape(np.shape(v))[()]


@lru_cache(maxsize=256)
def _compiled(source: str, floats: bool = False):
    """The function ``f`` that a generated source defines, with ``tanh``,
    ``maximum``, ``expit`` and ``tiny`` (the rates' positivity floor) in
    scope: the only names a family's formula may use.  They are
    :func:`_tanh_each`, numpy's ``maximum`` and :func:`expit`, or with
    ``floats`` the same maps of one float, each returning a float:
    ``math.tanh``, builtin ``max``, which keeps a NaN first argument as
    ``np.maximum`` keeps a NaN (so a rate's floor comes second), and
    :func:`_expit_float`.  tanh is libm's in both forms, so they round
    alike.  Only names and reprs of validated floats are ever put into a
    source."""
    namespace = {"tanh": math.tanh if floats else _tanh_each,
                 "maximum": max if floats else np.maximum,
                 "expit": _expit_float if floats else expit, "tiny": _TINY}
    exec(source, namespace)
    return namespace["f"]


class _Family:
    """A closed-form family: its dataclass fields are its JSON parameters and
    its ``__post_init__`` checks them, naming a bad one as the error's field
    (or no field, when the parameters fail together).  Its ``formula`` is its
    map, one expression in x, its fields and the names :func:`_compiled`
    provides; ``__call__`` and :meth:`on_floats` compile its :meth:`expr`."""

    kind: ClassVar[str]
    formula: ClassVar[str]

    def expr(self) -> str:
        """The formula with each field as the repr of its float value: the
        fields are validated finite, and repr gives a float back exactly."""
        return self.formula.format(**{f.name: f"({float(getattr(self, f.name))!r})"
                                      for f in fields(self)})

    @cached_property
    def _source(self) -> str:   # kept instead of the function, which would not pickle
        return f"def f(x): return {self.expr()}"

    def __call__(self, x):
        return _compiled(self._source)(x)

    def on_floats(self):
        """The map as a function of one float that returns a float with the
        bits of :meth:`__call__`: its formula compiled with the float names of
        :func:`_compiled`; callers bind it once."""
        return _compiled(self._source, True)

    def to_dict(self) -> dict:
        return {"type": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, d: dict, field: str):
        values = {f.name: _get_number(d, f.name, field) for f in fields(cls)
                  if f.default is MISSING or f.name in d}
        try:
            return cls(**values)
        except ConfigError as exc:
            raise ConfigError(f"{field}.{exc.field}" if exc.field else field,
                              exc._message) from None


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineClippedRate(_Family):
    """u -> max(floor, intercept + slope*u); strictly positive, Lipschitz |slope|."""

    floor: float
    intercept: float
    slope: float

    kind: ClassVar[str] = "affine_clipped"
    formula: ClassVar[str] = "maximum({intercept} + {slope} * x, {floor})"

    def __post_init__(self):
        _require(self.floor > 0 and math.isfinite(self.floor), "floor", "must be finite and > 0")
        _require(math.isfinite(self.intercept), "intercept", "must be finite")
        _require(math.isfinite(self.slope), "slope", "must be finite")

    def lipschitz_constant(self) -> float:
        return abs(self.slope)


@dataclass(frozen=True)
class SigmoidRate(_Family):
    """u -> height * expit(steepness*(u - center)); Lipschitz height*steepness/4.

    Evaluations are floored at the smallest positive double so the output
    stays strictly positive even where the sigmoid underflows.
    """

    height: float
    steepness: float
    center: float

    kind: ClassVar[str] = "sigmoid"
    formula: ClassVar[str] = "maximum({height} * expit({steepness} * (x - {center})), tiny)"

    def __post_init__(self):
        _require(self.height > 0 and math.isfinite(self.height), "height", "must be finite and > 0")
        _require(self.steepness > 0 and math.isfinite(self.steepness), "steepness",
                 "must be finite and > 0")
        _require(math.isfinite(self.center), "center", "must be finite")

    def lipschitz_constant(self) -> float:
        # max of height*steepness*s*(1-s) over s in (0,1), attained at s = 1/2
        return self.height * self.steepness / 4.0


@dataclass(frozen=True)
class ConstantRate(_Family):
    """u -> level, a strictly positive constant rate."""

    level: float

    kind: ClassVar[str] = "constant"
    formula: ClassVar[str] = "{level} + 0.0 * x"

    def __post_init__(self):
        _require(self.level > 0 and math.isfinite(self.level), "level", "must be finite and > 0")

    def lipschitz_constant(self) -> float:
        return 0.0


RateFunction = Union[AffineClippedRate, SigmoidRate, ConstantRate]

_RATE_KINDS = {c.kind: c for c in (AffineClippedRate, SigmoidRate, ConstantRate)}


# ---------------------------------------------------------------------------
# Diffusion coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearDrift(_Family):
    """b(x) = intercept - rate*x.

    ``rate`` may be negative (a repelling drift); such a model simulates
    fine but is classified outside both confinement frames.
    """

    rate: float
    intercept: float = 0.0

    kind: ClassVar[str] = "linear"
    formula: ClassVar[str] = "{intercept} - {rate} * x"

    def __post_init__(self):
        _require(math.isfinite(self.rate), "rate", "must be finite")
        _require(math.isfinite(self.intercept), "intercept", "must be finite")

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


@dataclass(frozen=True)
class BoundedSmoothDrift(_Family):
    """b(x) = -amplitude * tanh(steepness * x); bounded, smooth, inward."""

    amplitude: float
    steepness: float = 1.0

    kind: ClassVar[str] = "bounded_smooth"
    formula: ClassVar[str] = "-{amplitude} * tanh({steepness} * x)"

    def __post_init__(self):
        _require(self.amplitude > 0 and math.isfinite(self.amplitude), "amplitude",
                 "must be finite and > 0")
        _require(self.steepness > 0 and math.isfinite(self.steepness), "steepness",
                 "must be finite and > 0")

    def min_quadratic_confinement(self, r: float) -> float:
        # -x*b(x)/x^2 = amplitude*tanh(steepness*|x|)/|x| -> 0 at infinity:
        # a bounded drift never sustains a quadratic pull-back.
        return 0.0

    def min_linear_confinement(self, r: float) -> float:
        # amplitude*|x|*tanh(steepness*|x|) is increasing in |x|
        return self.amplitude * r * math.tanh(self.steepness * r)


Drift = Union[LinearDrift, BoundedSmoothDrift]
_DRIFT_KINDS = {c.kind: c for c in (LinearDrift, BoundedSmoothDrift)}


@dataclass(frozen=True)
class ConstantDiffusion(_Family):
    """sigma(x) = value.  value = 0 is allowed for deterministic test flows,
    but then the model fails the strict ellipticity check (see
    :func:`check_assumptions`)."""

    value: float

    kind: ClassVar[str] = "constant"
    formula: ClassVar[str] = "{value} + 0.0 * x"

    def __post_init__(self):
        _require(self.value >= 0 and math.isfinite(self.value), "value", "must be finite and >= 0")

    def sigma_sq_bounds(self) -> tuple[float, float]:
        return (self.value ** 2, self.value ** 2)


@dataclass(frozen=True)
class SmoothBoundedDiffusion(_Family):
    """sigma(x) = lo + (hi - lo)/(1 + x^2); smooth with lo <= sigma <= hi."""

    lo: float
    hi: float

    kind: ClassVar[str] = "smooth_bounded"
    formula: ClassVar[str] = "{lo} + ({hi} - {lo}) / (1.0 + x * x)"

    def __post_init__(self):
        _require(0 < self.lo <= self.hi and math.isfinite(self.hi), "",
                 "need 0 < lo <= hi, both finite")

    def sigma_sq_bounds(self) -> tuple[float, float]:
        return (self.lo ** 2, self.hi ** 2)


Diffusion = Union[ConstantDiffusion, SmoothBoundedDiffusion]
_DIFFUSION_KINDS = {c.kind: c for c in (ConstantDiffusion, SmoothBoundedDiffusion)}


# ---------------------------------------------------------------------------
# Jump maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantJump(_Family):
    """a(x) = size."""

    size: float

    kind: ClassVar[str] = "constant"
    formula: ClassVar[str] = "{size} + 0.0 * x"

    def __post_init__(self):
        _require(math.isfinite(self.size), "size", "must be finite")

    def power_envelope(self):
        """(C, eta) with |a(x)| <= C*|x|**eta and eta < 1, when representable."""
        return (abs(self.size), 0.0)


@dataclass(frozen=True)
class LinearDampingJump(_Family):
    """a(x) = -eta*x with 0 <= eta <= 2 (the post-jump point |x + a(x)| <= |x|)."""

    eta: float

    kind: ClassVar[str] = "linear_damping"
    formula: ClassVar[str] = "-{eta} * x"

    def __post_init__(self):
        _require(0 <= self.eta <= 2, "eta", "must lie in [0, 2]")

    def power_envelope(self):
        return (0.0, 0.0) if self.eta == 0 else None


@dataclass(frozen=True)
class PowerBoundedJump(_Family):
    """a(x) = coeff * x * (1 + x^2)^((exponent-1)/2), so |a(x)| <= |coeff|*|x|**exponent."""

    coeff: float
    exponent: float

    kind: ClassVar[str] = "power_bounded"
    formula: ClassVar[str] = "{coeff} * x * (1.0 + x * x) ** (({exponent} - 1.0) / 2.0)"

    def __post_init__(self):
        _require(math.isfinite(self.coeff), "coeff", "must be finite")
        _require(self.exponent < 1 and math.isfinite(self.exponent), "exponent",
                 "must be finite and < 1")

    def power_envelope(self):
        return (abs(self.coeff), self.exponent)


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
            parts.append(_variant_from_dict(_field(d, key, field), registry, f"{field}.{key}"))
        return cls(*parts)


def _variant_from_dict(d, registry: dict, field: str):
    """The family in ``registry`` named by d["type"], built from d; ``field``
    names d in errors."""
    _require(isinstance(d, dict), field, "must be an object with a 'type' tag")
    kind = _field(d, "type", field)
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
        c, alpha = _field(d, "c", field), _field(d, "alpha", field)
        c, alpha = _as_matrix(c, m, f"{field}.c"), _as_matrix(alpha, m, f"{field}.alpha")
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
    y = _as_matrix(_field(d, "y", field), m, f"{field}.y")
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
        _require(m <= _MAX_COMPONENTS, "M", f"must be at most {_MAX_COMPONENTS}, got {m}")
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
    m = _field(d, "M")
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "M", "must be a positive integer")
    raw_rates = _field(d, "rates")
    _require(isinstance(raw_rates, list), "rates", "must be an array")
    _require(len(raw_rates) == m, "rates",
             f"expected {m} rate functions, got {len(raw_rates)}")
    rates = [_variant_from_dict(rd, _RATE_KINDS, f"rates[{i}]") for i, rd in enumerate(raw_rates)]
    kernel = KernelMatrix.from_dict(_field(d, "kernel"), m)
    coeffs = CoefficientSpec.from_dict(_field(d, "coefficients"))
    initial = state_from_dict(_field(d, "initial"), m)
    return ModelSpec(tuple(rates), kernel, coeffs, initial)


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
    """Outcome of the confinement-frame scan plus ellipticity and kernel flags;
    subcriticality is ``stability_data(model).spectral_radius < 1``.

    ``frame`` is ``"exponential"``, ``"polynomial"`` or ``"neither"``.  For the
    exponential frame the witnesses are (d, r) with x*b(x) <= -d*x^2 beyond
    radius r; for the polynomial frame (gamma, r) with x*b(x) <= -gamma, plus
    the admissible exponent interval ``m_interval`` = (2, 1 + 2*gamma/sigma_hi^2),
    or (2, inf) without noise.
    """

    frame: str
    d: float | None
    gamma: float | None
    r: float | None
    m_interval: tuple[float, float] | None
    sigma_sq_bounds: tuple[float, float]
    sigma_bounds_ok: bool
    degenerate_kernel: bool
    violating_point: float | None
    notes: str


def check_assumptions(model: ModelSpec, scan_radius: float) -> AssumptionReport:
    """Classify the model into a confinement frame by scanning the defining
    inequalities on a symmetric grid over [-scan_radius, scan_radius], 201
    points on each side of 0.

    The inner exclusion radius r is searched over dyadic fractions of the
    scan radius; the drift rates use the families' exact formulas while the
    jump-map inequalities are certified on the grid.  A positive quadratic
    rate d is required for the exponential classification (d = 0 is treated
    as inconclusive).
    """
    if not (scan_radius > 0 and math.isfinite(scan_radius * scan_radius)):
        raise ValueError(f"scan_radius {scan_radius!r} must be > 0 with a finite square")

    coeffs = model.coefficients
    drift, jump = coeffs.drift, coeffs.jump
    half = np.linspace(scan_radius / 201, scan_radius, 201)
    xs = np.concatenate([-half[::-1], half])
    r_candidates = [scan_radius * 2.0 ** (-k) for k in range(8, 0, -1)]
    sig_lo, sig_hi = coeffs.diffusion.sigma_sq_bounds()
    notes: list[str] = []
    degenerate = model.kernel.is_degenerate
    if degenerate:
        notes.append("degenerate kernel: " + "; ".join(
            f"column {j} ({why})" for j, why in model.kernel.degenerate_columns()))

    def report(frame, d=None, gamma=None, r=None, m_interval=None, violating_point=None):
        return AssumptionReport(frame, d, gamma, r, m_interval, (sig_lo, sig_hi), sig_lo > 0,
                                degenerate, violating_point, "; ".join(notes))

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
            return report("exponential", d=float(d), r=float(r))

    # polynomial frame: linear drift pull-back above sigma_hi^2/2 (sig_hi holds
    # sigma_hi^2) plus radial contraction.  A|x|^m = m |x|^(m-2) (x b(x) +
    # (m-1) sigma^2(x)/2) < 0 far out for m < 1 + 2*gamma/sigma_hi^2, above 2.
    for r in r_candidates:
        gamma = drift.min_linear_confinement(r)
        if not gamma > sig_hi / 2.0:
            continue
        pts = xs[np.abs(xs) > r]
        if jump_contraction_ok(pts):
            upper = 1.0 + 2.0 * gamma / sig_hi if sig_hi > 0 else math.inf
            return report("polynomial", gamma=float(gamma), r=float(r), m_interval=(2.0, upper))

    # neither: report the innermost grid point past the largest candidate radius
    # at which the drift fails to pull inward (or, failing that, the jump map).
    pts = xs[np.abs(xs) > r_candidates[-1]]
    pts = pts[np.argsort(np.abs(pts))].tolist()

    drift_at, jump_at = drift.on_floats(), jump.on_floats()

    def jump_fails(x: float) -> bool:
        a = jump_at(x)
        return 2 * x * a + a * a > 0 and abs(x + a) - abs(x) > 0

    viol = next((x for x in pts if x * drift_at(x) >= 0.0), None)
    if viol is not None:
        notes.append(f"x*b(x) >= 0 at x = {viol:.6g}")
    else:
        viol = next(filter(jump_fails, pts), None)
        notes.append("drift confinement too weak for either frame on the scanned grid"
                     if viol is None else f"jump conditions fail at x = {viol:.6g}")
    return report("neither", violating_point=viol)
