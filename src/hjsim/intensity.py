"""Memory flow, event updates and intensity evaluation for the y component.

Between events every entry decays exponentially at its own rate; an event
of component j adds column j of the amplitude matrix.  The intensity of
component i is f_i applied to the i-th row sum of y.

:class:`RateRuntime` is the one evaluator of the rates and of the thinning
envelope: the engine, the diagnostics and the stability analysis all call
it, and the public helpers below are checked wrappers around it.
"""

from __future__ import annotations

import numpy as np

from .model import KernelMatrix, ModelSpec

__all__ = [
    "RateRuntime",
    "flow_memory",
    "apply_event",
    "intensity_vector",
    "total_event_rate",
    "dominating_rate",
]


class RateRuntime:
    """Rate functions, Lipschitz envelope and decay rates of one model,
    extracted once for the hot loops."""

    __slots__ = ("alpha", "fs", "gammas", "f_zero_sum")

    def __init__(self, model: ModelSpec):
        self.alpha = model.kernel.alpha
        self.fs = model.rates
        self.gammas = model.lipschitz_constants()
        self.f_zero_sum = float(self.rates_at(np.zeros(model.n_components)).sum())

    def rates_at(self, row_sums: np.ndarray) -> np.ndarray:
        """f_i(row_sums[..., i]) for every component i, over the last axis:
        shape (M,) for one state, (n, M) for n states."""
        return np.array([f(u) for f, u in zip(self.fs, row_sums.T)]).T

    def intensities(self, y: np.ndarray) -> np.ndarray:
        """Per-component rates at memory y of shape (M, M) or (n, M, M)."""
        return self.rates_at(y.sum(axis=-1))

    def bound(self, y: np.ndarray) -> float:
        """Lipschitz envelope sum_i [f_i(0) + gamma_i * sum_j |y[i, j]|] at one
        memory state.  It dominates the total rate along the whole decay flow
        started at y, because row absolute sums only shrink under the flow."""
        return self.f_zero_sum + float(self.gammas @ np.abs(y).sum(axis=1))

    def bounds(self, y: np.ndarray) -> np.ndarray:
        """:meth:`bound` at n memory states (n, M, M); the stacked product
        takes one dot product per state, so it rounds as :meth:`bound` does."""
        return self.f_zero_sum + np.matmul(np.abs(y).sum(axis=2)[:, None, :], self.gammas)[:, 0]


def _memory(model: ModelSpec, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    m = model.n_components
    if y.shape != (m, m):
        raise ValueError(f"y must have shape ({m}, {m})")
    return y


def flow_memory(kernel: KernelMatrix, y: np.ndarray, dt: float) -> np.ndarray:
    """Deterministic decay of y over dt >= 0: entry (i, j) is scaled by exp(-alpha[i,j]*dt)."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return np.asarray(y, dtype=float) * np.exp(-kernel.alpha * dt)


def apply_event(kernel: KernelMatrix, y: np.ndarray, component: int) -> np.ndarray:
    """State update at an event of ``component`` (1-based): column gains c[:, component-1]."""
    m = kernel.n_components
    if not 1 <= component <= m:
        raise IndexError(f"component must be in 1..{m}, got {component}")
    out = np.array(y, dtype=float, copy=True)
    out[:, component - 1] += kernel.c[:, component - 1]
    return out


def intensity_vector(model: ModelSpec, y: np.ndarray) -> np.ndarray:
    """Per-component rates f_i(sum_j y[i, j]); strictly positive by construction."""
    return RateRuntime(model).intensities(_memory(model, y))


def total_event_rate(model: ModelSpec, y: np.ndarray) -> float:
    """Summed intensity of all components at state y."""
    return float(intensity_vector(model, y).sum())


def dominating_rate(model: ModelSpec, y: np.ndarray) -> float:
    """Upper bound on the total rate along the whole decay flow started at y:
    the Lipschitz envelope of :meth:`RateRuntime.bound`."""
    return RateRuntime(model).bound(_memory(model, y))
