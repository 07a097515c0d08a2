"""Numeric jets of a metric: g, its first and mixed second derivatives.

Every curvature formula downstream consumes a :class:`MetricJet` — the values
at one point of

    g_{k lbar},   d_i g_{k lbar},   dbar_j g_{k lbar},   d_i dbar_j g_{k lbar}

plus the inverse metric.  The first time a spec is evaluated its derivative
tables are built symbolically (:func:`expr.wirtinger_diff`) and compiled into
two interned straight-line programs (:func:`expr.compile_program`): one for
g, one for all of dg, dbar_g and ddbar_g.  Only the programs stay cached on
the spec.  Each evaluation runs the g program over the whole batch of points,
checks g (finite, Hermitian, positive definite), then runs the derivative
program and checks that its values are finite.  A conformal factor's jet
(:func:`factor_jet`) is compiled the same way, by the same function, on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dsl import MetricSpec

__all__ = ["MetricJet", "FactorJet", "MetricError", "metric_jet", "metric_jets", "factor_jet"]

HERMITIAN_TOL = 1e-10  # relative to max(1, max|g|) at each point


class MetricError(ValueError):
    """Metric is not Hermitian/positive definite at an evaluation point."""


@dataclass(frozen=True)
class MetricJet:
    """Pointwise data of a metric.

    dg[i, k, l] = d_i g_{k lbar}; dbar_g[j, k, l] = dbar_j g_{k lbar};
    ddbar_g[i, j, k, l] = d_i dbar_j g_{k lbar}.  Hermitianity gives
    dbar_g[j, k, l] = conj(dg[j, l, k]).
    """

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    dbar_g: np.ndarray
    ddbar_g: np.ndarray
    g_inv: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class FactorJet:
    """Pointwise data of a scalar factor F: value, gradients, mixed Hessian."""

    point: np.ndarray
    value: float
    grad: np.ndarray       # d_k F
    grad_bar: np.ndarray   # dbar_k F
    hess: np.ndarray       # hess[k, l] = d_k dbar_l F


def _compile_jet(exprs, n: int) -> tuple:
    """(value program, derivative program) of scalar expressions in n coordinates.

    The derivative program's outputs are d_i e, then dbar_j e, then
    dbar_j d_i e, in C order over (i, entry), (j, entry) and (i, j, entry);
    :func:`_split` cuts them back into those three tables.
    """
    N, r = len(exprs), range(n)
    d = [ex.wirtinger_diff(e, "holo", i + 1) for i in r for e in exprs]
    dbar = [ex.wirtinger_diff(e, "anti", j + 1) for j in r for e in exprs]
    ddbar = [ex.wirtinger_diff(d[i * N + k], "anti", j + 1) for i in r for j in r for k in range(N)]
    return ex.compile_program(exprs), ex.compile_program(d + dbar + ddbar)


def _split(d, n: int, shape: tuple) -> tuple:
    """The (m, n, *shape), (m, n, *shape) and (m, n, n, *shape) tables in d."""
    m, k = len(d), n * int(np.prod(shape))
    a, b, c = np.split(d, [k, 2 * k], axis=1)
    return a.reshape(m, n, *shape), b.reshape(m, n, *shape), c.reshape(m, n, n, *shape)


def _programs(spec: MetricSpec) -> tuple:
    """(g program, derivative program) of spec's entries, compiled once and cached on it."""
    # idempotent lazy cache; MetricSpec is immutable by convention
    if spec._tables is None:
        r = range(spec.n)
        spec._tables = _compile_jet([spec.entries[k][l] for k in r for l in r], spec.n)
    return spec._tables


def _require_finite(values, pts, what: str):
    finite = np.isfinite(values).reshape(len(pts), -1).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise MetricError(f"{what} not finite at {pts[bad]}")


def metric_jets(spec: MetricSpec, points) -> list:
    """Jets of spec at a batch of points, shape (m, n).

    One pass of the g program and one of the derivative program over the
    whole batch.  Raises MetricError when any point has a non-finite g or
    jet, fails the positive-definiteness check, or fails the Hermitian check:
    max|g - g^H| must stay below HERMITIAN_TOL * max(1, max|g|) there.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != spec.n:
        raise ValueError(f"points have {pts.shape[1]} coordinates, metric has n={spec.n}")
    g_prog, d_prog = _programs(spec)
    m, n = pts.shape
    with np.errstate(over="ignore", invalid="ignore"):  # reported as MetricError below
        g = ex.evaluate(g_prog, pts).reshape(m, n, n)
    _require_finite(g, pts, "metric is")
    herm = np.max(np.abs(g - np.conj(np.swapaxes(g, 1, 2))), axis=(1, 2))
    tol = HERMITIAN_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    bad = int(np.argmax(herm / tol))
    if herm[bad] >= tol[bad]:
        raise MetricError(
            f"metric is not Hermitian at {pts[bad]} (residual {herm[bad]:.3e}, tolerance {tol[bad]:.3e})"
        )
    g = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
    eig = np.linalg.eigvalsh(g)
    if np.any(eig <= 0):
        bad = int(np.argmin(eig[:, 0]))
        raise MetricError(
            f"metric is not positive definite at {pts[bad]} (min eigenvalue {eig[bad, 0]:.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        d = ex.evaluate(d_prog, pts)
    _require_finite(d, pts, "metric derivatives are")
    dg, dbg, ddg = _split(d, n, (n, n))
    g_inv = np.linalg.inv(g)
    resid = np.max(np.abs(np.einsum("mij,mjk->mik", g_inv, g) - np.eye(n)))
    if resid > 1e-12 * max(1.0, float(np.max(np.abs(g_inv)))):
        raise MetricError(f"inverse-metric residual {resid:.3e} exceeds tolerance")
    return [
        MetricJet(pts[k], g[k], dg[k], dbg[k], ddg[k], g_inv[k])
        for k in range(m)
    ]


def metric_jet(spec: MetricSpec, p) -> MetricJet:
    """Jet of spec at a single point of C^n."""
    return metric_jets(spec, np.asarray(p, dtype=complex)[None, :])[0]


def factor_jet(F: ex.Expr, p, n: int) -> FactorJet:
    """Jet of a real-valued scalar factor F at p (value, gradients, mixed Hessian)."""
    return _factor_jets(F, np.asarray(p, dtype=complex)[None, :], n)[0]


def _factor_jets(F: ex.Expr, pts: np.ndarray, n: int) -> list:
    """Jets of F at a batch of points, shape (m, n): one compile, one run of each program."""
    v_prog, d_prog = _compile_jet([F], n)
    vals = ex.evaluate(v_prog, pts)[:, 0]
    bad = int(np.argmax(np.abs(vals.imag)))
    if abs(vals[bad].imag) > 1e-10:
        raise ValueError(f"conformal factor is not real at {pts[bad]} (Im = {vals[bad].imag:.3e})")
    tables = _split(ex.evaluate(d_prog, pts), n, ())
    return [FactorJet(p, float(v.real), *jet) for p, v, *jet in zip(pts, vals, *tables)]
