"""Stability analysis: interaction matrix, Perron data, energy functions,
exact generator evaluation, numerical drift verification and the
column-Vandermonde invertibility check.

The interaction matrix has entries gamma_j * |c[i,j]| / alpha[i,j]
(downstream Lipschitz constant times amplitude over decay); its spectral
radius below one is the subcriticality condition.  The radius and the
Perron vector come from a dense eigendecomposition of the M x M matrix,
checked by their residual.  The energy (Lyapunov) function is

    V(x, y) = V1(x) + exp(sum_ij w[i,j] * |y[i,j]|),

with weights w[i,j] = kappa_i / alpha[i,j] built from the l1-normalised
nonnegative left Perron eigenvector kappa, and V1(x) = x^2 in the
exponential frame or 1 + |x|^m in the polynomial frame.  The extended
generator applied to V has the closed form

    A V(z) = - sum_ij alpha_ij y_ij dV/dy_ij  + b(x) V1'(x)
             + (1/2) sigma^2(x) V1''(x)
             + sum_j f_j(row_j(y)) [ V(x + a(x), y + e_j) - V(x, y) ],

where event j adds c[:, j] to column j.  V is non-smooth where any y entry
is zero (and, in the polynomial frame, at x = 0); such states are refused
rather than smoothed.  Far-field scans work with A V / V on the log scale
so nothing overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import IntegratorConfig, advance_diffusion_many
from .engine import _from_first_candidates
from .intensity import RateRuntime
from .model import AssumptionReport, KernelMatrix, ModelSpec, State, check_assumptions
from .rng import RandomStream

__all__ = [
    "NonConvergenceError",
    "interaction_matrix",
    "spectral_radius",
    "perron_left_vector",
    "StabilityData",
    "stability_data",
    "LyapunovSpec",
    "lyapunov_value",
    "generator_apply",
    "DriftScanResult",
    "drift_scan",
    "VandermondeCheck",
    "vandermonde_matrix",
    "vandermonde_check",
    "dynkin_quotient",
    "stability_report",
]

_EXP_CAP = 700.0  # exp() overflows just above this
# drift_scan draws n_points * M * M memory entries (8 bytes each, and a few
# arrays of that size follow); above this many it refuses to run.
_MAX_SCAN_DRAWS = 10 ** 7


class NonConvergenceError(RuntimeError):
    """The Perron eigenvector failed its residual check."""


# ---------------------------------------------------------------------------
# Perron data
# ---------------------------------------------------------------------------


def interaction_matrix(model: ModelSpec) -> np.ndarray:
    """Entries gamma_j * |c[i,j]| / alpha[i,j]; nonnegative."""
    gammas = model.lipschitz_constants()
    return gammas[np.newaxis, :] * np.abs(model.kernel.c) / model.kernel.alpha


def _perron(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and l1-normalised nonnegative left eigenvector.

    Takes the eigenvalue of largest real part (the spectral radius, for a
    nonnegative matrix), clamped at 0, and the absolute value of its left
    eigenvector; :func:`stability_data` checks the residual.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(mat)) or np.any(mat < 0):
        raise ValueError("matrix must be nonnegative with finite entries")
    values, vectors = np.linalg.eig(mat.T)
    k = int(np.argmax(values.real))
    v = np.abs(vectors[:, k])
    return max(0.0, float(values[k].real)), v / v.sum()


def spectral_radius(mat: np.ndarray) -> float:
    """Spectral radius of a nonnegative square matrix."""
    return _perron(mat)[0]


def perron_left_vector(mat: np.ndarray) -> np.ndarray:
    """l1-normalised nonnegative left eigenvector at the spectral radius."""
    return _perron(mat)[1]


@dataclass(frozen=True, eq=False)
class StabilityData:
    """Interaction matrix, its Perron data and the energy-function weights."""

    matrix: np.ndarray
    spectral_radius: float
    left_eigenvector: np.ndarray
    exponent_weights: np.ndarray  # kappa_i / alpha[i, j]

    def __post_init__(self):
        for name in ("matrix", "left_eigenvector", "exponent_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def stability_data(model: ModelSpec) -> StabilityData:
    h = interaction_matrix(model)
    rho, kappa = _perron(h)
    residual = float(np.max(np.abs(kappa @ h - rho * kappa)))
    if residual > 1e-10 * max(1.0, rho):
        raise NonConvergenceError(f"left eigenvector residual {residual:.2e} too large")
    weights = kappa[:, np.newaxis] / model.kernel.alpha
    return StabilityData(h, rho, kappa, weights)


# ---------------------------------------------------------------------------
# Energy function and generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovSpec:
    """Frame choice for V1: x^2 (exponential) or 1 + |x|^m (polynomial)."""

    frame: str
    poly_m: float | None = None

    def __post_init__(self):
        if self.frame not in ("exponential", "polynomial"):
            raise ValueError("frame must be 'exponential' or 'polynomial'")
        if self.frame == "polynomial":
            if self.poly_m is None or not self.poly_m > 2:
                raise ValueError("polynomial frame requires poly_m > 2")

    @property
    def alpha_exp(self) -> float | None:
        """Exponent deficit 2/m of the polynomial drift inequality."""
        return None if self.poly_m is None else 2.0 / self.poly_m


def _spec_from_report(report: AssumptionReport) -> LyapunovSpec:
    """The spec of an assumption report's frame; the polynomial frame takes
    the midpoint of the admissible exponent interval as its exponent m, or
    twice its lower end where a noiseless model leaves it unbounded."""
    if report.frame == "exponential":
        return LyapunovSpec("exponential")
    if report.frame == "polynomial":
        lo, hi = report.m_interval
        return LyapunovSpec("polynomial", 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi))
    raise ValueError("model is outside both confinement frames")


def _v1_terms(lyap: LyapunovSpec, x):
    """(V1, V1', V1'') for scalar or array x."""
    if lyap.frame == "exponential":
        return x * x, 2.0 * x, 2.0 + 0.0 * x
    m = lyap.poly_m
    ax = np.abs(x)
    return (1.0 + ax ** m,
            m * np.sign(x) * ax ** (m - 1.0),
            m * (m - 1.0) * ax ** (m - 2.0))


def lyapunov_value(lyap: LyapunovSpec, stab: StabilityData, z: State) -> float:
    """V(z) >= 1; raises OverflowError when the memory exponent exceeds 700."""
    s = float((stab.exponent_weights * np.abs(z.y)).sum())
    if s > _EXP_CAP:
        raise OverflowError(f"memory exponent {s:.1f} exceeds {_EXP_CAP:.0f}; "
                            "V saturates the floating range")
    v1, _, _ = _v1_terms(lyap, z.x)
    return float(v1) + math.exp(s)


def _generator_ratio(model: ModelSpec, lyap: LyapunovSpec, stab: StabilityData,
                     x: np.ndarray, y: np.ndarray):
    """Vectorised (A V / V, log V) over states (x[k], y[k]); overflow-safe.

    For the polynomial frame the drift inequality uses V^(1-alpha); callers
    rescale with exp(alpha * log V).
    """
    coeffs = model.coefficients
    mw = stab.exponent_weights
    kappa = stab.left_eigenvector
    c = model.kernel.c
    abs_y = np.abs(y)
    s = (mw * abs_y).sum(axis=(1, 2))
    flow_coeff = (kappa[np.newaxis, :, np.newaxis] * abs_y).sum(axis=(1, 2))
    v1, v1p, v1pp = _v1_terms(lyap, x)
    drift_term = coeffs.drift(x) * v1p + 0.5 * coeffs.diffusion(x) ** 2 * v1pp
    lam = RateRuntime(model).intensities(y)
    jump_exponents = ((np.abs(y + c[np.newaxis]) - abs_y) * mw[np.newaxis]).sum(axis=1)
    jump_memory = (lam * np.expm1(jump_exponents)).sum(axis=1)
    x_post = x + coeffs.jump(x)
    v1_post, _, _ = _v1_terms(lyap, x_post)
    delta_v1 = v1_post - v1
    exp_neg_s = np.exp(-s)
    w2 = 1.0 / (1.0 + v1 * exp_neg_s)  # V2 / V
    ratio = (jump_memory - flow_coeff) * w2 \
        + (drift_term + lam.sum(axis=1) * delta_v1) * exp_neg_s * w2
    log_v = s + np.log1p(v1 * exp_neg_s)
    return ratio, log_v


def generator_apply(model: ModelSpec, lyap: LyapunovSpec, stab: StabilityData,
                    z: State) -> float:
    """Exact extended generator applied to V at z, term by term in closed form.

    Refuses states where V is not differentiable: any y entry equal to zero,
    or x = 0 in the polynomial frame.
    """
    y = np.asarray(z.y, dtype=float)
    if np.any(y == 0.0):
        raise ValueError("generator undefined where a memory entry is exactly 0")
    if lyap.frame == "polynomial" and z.x == 0.0:
        raise ValueError("generator undefined at x = 0 in the polynomial frame")
    s = float((stab.exponent_weights * np.abs(y)).sum())
    if s > _EXP_CAP:
        raise OverflowError("memory exponent exceeds the floating range; "
                            "use drift_scan, which works with A V / V")
    ratio, log_v = _generator_ratio(model, lyap, stab,
                                    np.array([z.x]), y[np.newaxis])
    return float(ratio[0] * math.exp(log_v[0]))


# ---------------------------------------------------------------------------
# Drift verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftScanResult:
    """Fitted drift constants d1, d2 and any sampled states violating
    A V <= d1 - d2 * V (or V^(1-alpha) in the polynomial frame)."""

    frame: str
    d1: float
    d2: float
    n_points: int
    n_violations: int
    violations: list
    success: bool
    message: str

    def to_dict(self) -> dict:
        d1, d2 = (v if math.isfinite(v) else None for v in (self.d1, self.d2))
        return {"frame": self.frame, "d1": d1, "d2": d2,
                "n_points": self.n_points, "n_violations": self.n_violations,
                "success": self.success, "message": self.message}


def drift_scan(model: ModelSpec, lyap: LyapunovSpec, stab: StabilityData,
               region: tuple[float, float, float, float], n_points: int,
               seed: int = 0) -> DriftScanResult:
    """Sample states in the box region (x_lo, x_hi, y_lo, y_hi), evaluate the
    generator ratio, and fit the drift constants empirically.

    d2 is minus the largest ratio over the far field (states with V above
    the sample median); d1 is the largest value of A V + d2 * V over the
    near field.  Far-field states exceeding d1 by more than 1e-9 * (1 + |d1|)
    are reported as violations.  ``success`` is False when no positive d2
    exists (a model outside the proved frames) or d1 or d2 is not finite.
    """
    x_lo, x_hi, y_lo, y_hi = region
    m = model.n_components
    if n_points * m * m > _MAX_SCAN_DRAWS:
        raise ValueError(f"{n_points} scan points on M = {m} take {n_points * m * m:.3g} "
                         f"memory draws, more than {_MAX_SCAN_DRAWS}")
    gen = np.random.default_rng(seed)
    x = gen.uniform(x_lo, x_hi, size=n_points)
    y = gen.uniform(y_lo, y_hi, size=(n_points, m, m))
    margin = 1e-3 * max(abs(y_lo), abs(y_hi))
    for _ in range(100):
        small = np.abs(y) < margin
        if not small.any():
            break
        y[small] = gen.uniform(y_lo, y_hi, size=int(small.sum()))
    if lyap.frame == "polynomial":
        x_margin = 1e-3 * max(abs(x_lo), abs(x_hi))
        for _ in range(100):
            small = np.abs(x) < x_margin
            if not small.any():
                break
            x[small] = gen.uniform(x_lo, x_hi, size=int(small.sum()))

    power = 1.0 if lyap.frame == "exponential" else 1.0 - lyap.alpha_exp
    with np.errstate(over="ignore", invalid="ignore"):   # a fit that is not finite fails
        ratio, log_v = _generator_ratio(model, lyap, stab, x, y)
        fit_ratio = ratio if power == 1.0 else ratio * np.exp(lyap.alpha_exp * log_v)
        far = log_v >= np.median(log_v)
        d2 = -float(np.max(fit_ratio[far]))
        lhs = np.exp(power * log_v) * (fit_ratio + d2)
    if d2 <= 0:
        return DriftScanResult(lyap.frame, math.nan, d2, n_points, 0, [], False,
                               "no positive d2: the generator ratio stays "
                               "nonnegative in the far field")
    d1 = float(np.max(lhs[~far])) if np.any(~far) else float(np.max(lhs))
    if not (math.isfinite(d1) and math.isfinite(d2)):
        return DriftScanResult(lyap.frame, d1, d2, n_points, 0, [], False,
                               "d1 or d2 is not finite: V overflows on the scan box")
    tol = 1e-9 * (1.0 + abs(d1))
    bad = np.flatnonzero(far & (lhs > d1 + tol))
    violations = [(float(x[i]), y[i].copy()) for i in bad[:32]]
    return DriftScanResult(lyap.frame, d1, d2, n_points, int(bad.size),
                           violations, True,
                           "" if bad.size == 0 else f"{bad.size} sampled states "
                           "exceed the fitted drift bound")


# ---------------------------------------------------------------------------
# Vandermonde invertibility check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VandermondeCheck:
    column: int
    t0: float
    determinant: float
    threshold: float
    invertible: bool


def vandermonde_matrix(alphas: np.ndarray, t0: float) -> np.ndarray:
    """Rows (e^{-(M-1) a_i t0}, ..., e^{-a_i t0}, 1) for the column decays a_i."""
    if not t0 > 0:
        raise ValueError("t0 must be > 0")
    x = np.exp(-np.asarray(alphas, dtype=float) * t0)
    return np.vander(x, len(x), increasing=False)


def vandermonde_check(kernel: KernelMatrix, column: int, t0: float) -> VandermondeCheck:
    """Determinant of the column decay Vandermonde matrix at spacing t0; repeated
    decay rates give determinant 0, reported as non-invertible."""
    m = kernel.n_components
    if not 1 <= column <= m:
        raise IndexError(f"column must be in 1..{m}")
    mat = vandermonde_matrix(kernel.alpha[:, column - 1], t0)
    det = float(np.linalg.det(mat))
    threshold = 1e-12 * float(np.prod(np.linalg.norm(mat, axis=1)))
    return VandermondeCheck(column, t0, det, threshold, abs(det) > threshold)


# ---------------------------------------------------------------------------
# Monte Carlo generator check
# ---------------------------------------------------------------------------


def dynkin_quotient(model: ModelSpec, lyap: LyapunovSpec, stab: StabilityData,
                    z: State, dt: float, n_paths: int, seed: int,
                    cfg: IntegratorConfig) -> tuple[float, float]:
    """Monte Carlo estimate of (E[V(Z_dt)] - V(z)) / dt with its standard error.

    The first thinning candidate time is drawn for every path at the initial
    dominating rate; paths without a candidate before dt (almost all of
    them, for small dt) reduce to one vectorised diffusion transition, while
    the rare candidate-bearing paths are continued exactly, one by one,
    through the engine's event loop and skeleton pass.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    cfg.validate_for(model.coefficients)
    rng = RandomStream(seed)
    rt = RateRuntime(model)
    y0 = np.asarray(z.y, dtype=float)
    bound0 = rt.bound(y0.ravel().tolist())
    first_candidate = -np.log(rng.uniforms(n_paths)) / bound0
    quiet = first_candidate > dt
    n_quiet = int(quiet.sum())

    values = np.empty(n_paths)
    if n_quiet:
        x_end = advance_diffusion_many(np.full(n_quiet, z.x), dt,
                                       model.coefficients, cfg, rng)
        y_end = y0 * np.exp(-model.kernel.alpha * dt)
        s = float((stab.exponent_weights * np.abs(y_end)).sum())
        v1, _, _ = _v1_terms(lyap, x_end)
        values[np.flatnonzero(quiet)] = v1 + math.exp(s)
    busy = np.flatnonzero(~quiet)
    x_end, y_end = _from_first_candidates(
        ModelSpec(model.rates, model.kernel, model.coefficients, z), cfg, dt, rng,
        first_candidate[busy], bound0)
    for idx, x, y in zip(busy.tolist(), x_end.tolist(), y_end):
        v1, _, _ = _v1_terms(lyap, x)
        values[idx] = float(v1) + math.exp(float((stab.exponent_weights * np.abs(y)).sum()))

    v0 = lyapunov_value(lyap, stab, z)
    quotient = (float(values.mean()) - v0) / dt
    std_error = float(values.std(ddof=1)) / math.sqrt(n_paths) / dt
    return quotient, std_error


# ---------------------------------------------------------------------------
# Composite report
# ---------------------------------------------------------------------------


def stability_report(model: ModelSpec, scan_radius: float = 20.0,
                     n_points: int = 10_000, seed: int = 0) -> dict:
    """JSON-ready stability summary: interaction matrix, Perron data, frame
    classification, fitted drift constants and per-column Vandermonde
    determinants at spacings t0 = 0.1 and 1.  A non-finite end of the
    exponent interval is written as null."""
    stab = stability_data(model)
    assumptions = check_assumptions(model, scan_radius)
    report = {
        "interaction_matrix": stab.matrix.tolist(),
        "spectral_radius": stab.spectral_radius,
        "perron_left_vector": stab.left_eigenvector.tolist(),
        "stability_ok": stab.spectral_radius < 1.0,
        "frame": assumptions.frame,
        "frame_witnesses": {
            "d": assumptions.d, "gamma": assumptions.gamma, "r": assumptions.r,
            "m_interval": [v if math.isfinite(v) else None for v in assumptions.m_interval]
                          if assumptions.m_interval else None,
        },
        "sigma_sq_bounds": list(assumptions.sigma_sq_bounds),
        "sigma_bounds_ok": assumptions.sigma_bounds_ok,
        "degenerate_kernel": assumptions.degenerate_kernel,
        "notes": assumptions.notes,
        "drift": None,
        "vandermonde": [],
    }
    if assumptions.frame != "neither":
        scan = drift_scan(model, _spec_from_report(assumptions), stab,
                          (-scan_radius, scan_radius, -scan_radius, scan_radius),
                          n_points, seed=seed)
        report["drift"] = scan.to_dict()
    for j in range(1, model.n_components + 1):
        for t0 in (0.1, 1.0):
            chk = vandermonde_check(model.kernel, j, t0)
            report["vandermonde"].append({
                "column": j, "t0": t0, "determinant": chk.determinant,
                "invertible": chk.invertible})
    return report
