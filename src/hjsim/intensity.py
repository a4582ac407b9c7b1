"""Memory flow and intensity evaluation for the y component.

Between events every entry decays exponentially at its own rate; an event
of component j adds column j of the amplitude matrix (the engine's event
records do this).  The intensity of component i is f_i applied to the i-th
row sum of y.

:class:`RateRuntime` is the one evaluator of the rates and of the thinning
envelope: the engine, the diagnostics and the stability analysis all call
it.  Its one-state ``bound`` and ``flow``, built on first use, are
straight-line code generated and compiled once per M from the source
fragments of :func:`_fragments`, which the engine's one-path candidate loop
inlines too, so that both round as numpy does by one set of rules; the
generated source names no model value, which enters as an argument.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import ModelSpec, _compiled

__all__ = ["RateRuntime"]


_EVALUATORS = """\
from numpy import add, exp

reduce = add.reduce


def f(decay, gammas, fz, {ats}):
    {scalars}

    def bound(y):
        {ys}, = y
        return fz + {envelope}

    def flow(y, dt):
        {es}, = {exps}
        {ys}, = y
        {body}
        return [{ys}], [{ss}], [{cs}]

    return bound, flow
"""


def _row_sum(terms: list) -> str:
    """The sum of ``terms`` rounded as numpy's sum rounds it: in order from
    0.0 below eight terms, pairwise (``np.add.reduce``) from eight on."""
    if len(terms) < 8:
        return " + ".join(["0.0", *terms])
    return f"float(reduce([{', '.join(terms)}]))"


def _fragments(m: int, indent: int) -> dict:
    """The source of the envelope and the memory flow for M = m, which
    :func:`_evaluators` and the engine's one-path loop put together: the
    names (``ats``, the rates' float forms; ``ys``, the memory; ``es``,
    ``ss``, ``cs``), the factory's ``scalars``, the ``envelope`` less the
    rates at 0, the decay factors ``exps`` over ``dt`` and the flow's
    ``body``, its lines joined at ``indent`` spaces."""
    ys, es = [f"y{k}" for k in range(m * m)], [f"e{k}" for k in range(m * m)]
    ats, ss, cs = ([f"{name}{i}" for i in range(m)] for name in ("at", "s", "c"))
    rows = [ys[i:i + m] for i in range(0, m * m, m)]
    body = ([f"{y} = {y} * {e}" for y, e in zip(ys, es)]
            + [f"{s} = {_row_sum(row)}" for s, row in zip(ss, rows)]
            + ["c0 = at0(s0)"] + [f"c{i} = c{i - 1} + at{i}(s{i})" for i in range(1, m)])
    abs_sums = ", ".join(_row_sum([f"abs({y})" for y in row]) for row in rows)
    one = m == 1   # numpy's dot of one term is 0.0 plus it; its exp of a float is its array exp
    return dict(
        ats=", ".join(ats), ys=", ".join(ys), es=", ".join(es), ss=", ".join(ss),
        cs=", ".join(cs),
        scalars="g0, d0 = float(gammas[0]), float(decay[0])" if one else "dot = gammas.dot",
        envelope=f"(0.0 + g0 * ({abs_sums}))" if one else f"float(dot([{abs_sums}]))",
        exps="float(exp(d0 * dt))," if one else "exp(decay * dt).tolist()",
        body=f"\n{' ' * indent}".join(body))


@lru_cache(maxsize=None)
def _evaluators(m: int):
    """The factory ``f(decay, gammas, fz, at0, ..., at{m-1})`` of the
    ``(bound, flow)`` pair for M = m, compiled once per m; its source names
    no model value, each of which is an argument of the factory."""
    return _compiled(_EVALUATORS.format(**_fragments(m, 8)))


class RateRuntime:
    """Rate functions, Lipschitz envelope and decay rates of one model,
    extracted once for the hot loops.

    ``bound(y)`` and ``flow(y, dt)`` take one memory state as a row-major
    list and round as the array methods do.  They are straight-line code
    unrolled over the M x M memory (:func:`_evaluators`), compiled on first
    use, closures over this model's decay rates, Lipschitz constants and the
    rates' float forms (:meth:`~hjsim.model._Family.on_floats`):

    - ``bound(y)`` is the Lipschitz envelope sum_i [f_i(0) + gamma_i *
      sum_j |y[i, j]|] at y.  It dominates the total rate along the whole
      decay flow started at y, because row absolute sums only shrink under
      the flow; :meth:`bounds` is the same at n states.
    - ``flow(y, dt)`` is the memory y flowed over dt, its row sums, and the
      running sums of the component rates there (in ``np.cumsum``'s order).
    """

    __slots__ = ("alpha", "decay", "fs", "gammas", "f_zero_sum", "bound", "flow")

    def __init__(self, model: ModelSpec):
        self.alpha = model.kernel.alpha
        self.decay = -self.alpha.ravel()   # flow exponents per unit time, row-major
        self.fs = model.rates
        self.gammas = model.lipschitz_constants()
        self.f_zero_sum = float(self.rates_at(np.zeros(model.n_components)).sum())

    def __getattr__(self, name: str):
        # ``bound`` and ``flow``, compiled on first use: a plain simulation
        # runs the engine's one-path loop, which inlines them, and never asks
        if name not in ("bound", "flow"):
            raise AttributeError(name)
        self.bound, self.flow = _evaluators(len(self.fs))(
            self.decay, self.gammas, self.f_zero_sum, *(f.on_floats() for f in self.fs))
        return getattr(self, name)

    def rates_at(self, row_sums: np.ndarray) -> np.ndarray:
        """f_i(row_sums[..., i]) for every component i, over the last axis:
        shape (M,) for one state, (n, M) for n states."""
        return np.array([f(u) for f, u in zip(self.fs, row_sums.T)]).T

    def intensities(self, y: np.ndarray) -> np.ndarray:
        """Per-component rates at memory y of shape (M, M) or (n, M, M)."""
        return self.rates_at(y.sum(axis=-1))

    def bounds(self, y: np.ndarray) -> np.ndarray:
        """``bound`` at n memory states (n, M, M); the stacked product takes
        one dot product per state, so it rounds as ``bound`` does, and it
        overflows as silently."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.f_zero_sum + np.matmul(np.abs(y).sum(axis=2)[:, None, :],
                                               self.gammas)[:, 0]

