"""Numeric jets of a metric: g, its first and mixed second derivatives.

Every curvature formula downstream consumes a :class:`MetricJet` — the values
at a batch of points (a leading axis on every array) of

    g_{k lbar},   d_i g_{k lbar},   dbar_j g_{k lbar},   d_i dbar_j g_{k lbar}

plus the inverse metric; ``jets[k]`` is the jet at one point.  The first time
a spec is evaluated its derivative tables are built symbolically
(:func:`expr.wirtinger_diff`) and compiled into two interned straight-line
programs (:func:`expr.compile_program`): one for g, one for all of dg, dbar_g
and ddbar_g.  Only the programs stay cached on the spec.  Each evaluation
runs the g program over the whole batch, checks g (finite, Hermitian,
positive definite), then runs the derivative program and checks that its
values are finite.  A point that fails a check leaves the batch with its own
reason, and :func:`metric_jets` raises the first point's.  A conformal
factor's jet (:func:`factor_jet`) is compiled the same way, by the same
function, on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import expr as ex
from .dsl import MetricSpec

__all__ = ["MetricJet", "FactorJet", "MetricError", "metric_jet", "metric_jets", "factor_jet"]

HERMITIAN_TOL = 1e-10  # relative to max(1, max|g|) at each point


class MetricError(ValueError):
    """Metric is not Hermitian/positive definite at an evaluation point."""


class _PerPoint:
    """Indexing over the leading batch axis of a per-point dataclass.

    _CORE names a field and its number of per-point axes; any axis before
    those is the batch axis.  ``obj[k]`` takes every array field at k and
    keeps the other fields, so iterating walks the points (until IndexError).
    A one-point object has no length.
    """

    _CORE = ("point", 1)

    def __len__(self) -> int:
        name, ndim = self._CORE
        shape = np.shape(getattr(self, name))
        if len(shape) == ndim:
            raise TypeError(f"{type(self).__name__} holds one point, not a batch")
        return shape[0]

    def __getitem__(self, k):
        len(self)  # a one-point object has no batch axis to index
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{name: a[k] for name, a in arrays.items() if isinstance(a, np.ndarray)})


@dataclass(frozen=True)
class MetricJet(_PerPoint):
    """Pointwise data of a metric, at one point or with a leading batch axis.

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
        return self.g.shape[-1]


@dataclass(frozen=True)
class FactorJet(_PerPoint):
    """Pointwise data of a scalar factor F, at one point or a batch: value, gradients, mixed Hessian."""

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


def _reject(reasons: list, bad, why) -> np.ndarray:
    """Give each point k where bad holds, and that has no reason yet, MetricError(why(k)).

    Returns the mask of the points that still have none.
    """
    for k in np.flatnonzero(bad):
        reasons[k] = reasons[k] or MetricError(why(k))
    return np.array([r is None for r in reasons], dtype=bool)


def _evaluate(prog: ex.Program, pts: np.ndarray, reasons: list) -> np.ndarray:
    """prog at pts; each point where a guard or log fails gets that EvaluationError as its reason."""
    try:
        return ex.evaluate(prog, pts)
    except ex.EvaluationError:  # run again to find the points that failed
        out, failed = ex._run(prog, pts)
        for k in np.flatnonzero(failed >= 0):
            reasons[k] = reasons[k] or ex.EvaluationError(ex._reason(prog, failed[k]))
        return out


def _jets(spec: MetricSpec, points) -> tuple:
    """(jets of the points that pass every check, one reason per point).

    A point's reason is None, or the EvaluationError or MetricError of the
    first check it fails, in this order: the g program, g finite, g
    Hermitian (max|g - g^H| below HERMITIAN_TOL * max(1, max|g|) there), g
    positive definite, the derivative program, its values finite, and the
    residual of the inverse metric.  The batch keeps the other points in
    their order.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != spec.n:
        raise ValueError(f"points have {pts.shape[1]} coordinates, metric has n={spec.n}")
    g_prog, d_prog = _programs(spec)
    m, n = pts.shape
    eye, reasons = np.eye(n), [None] * m
    g = _evaluate(g_prog, pts, reasons).reshape(m, n, n)
    ok = _reject(reasons, ~np.isfinite(g).all(axis=(1, 2)), lambda k: f"metric is not finite at {pts[k]}")
    g = np.where(ok[:, None, None], g, eye)  # a failed point's stand-in keeps the checks below finite
    herm = np.max(np.abs(g - np.conj(np.swapaxes(g, 1, 2))), axis=(1, 2))
    tol = HERMITIAN_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    why = "metric is not Hermitian at {} (residual {:.3e}, tolerance {:.3e})"
    _reject(reasons, herm >= tol, lambda k: why.format(pts[k], herm[k], tol[k]))
    g = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
    eig = np.linalg.eigvalsh(g)[:, 0]
    why = "metric is not positive definite at {} (min eigenvalue {:.3e})"
    ok = _reject(reasons, eig <= 0, lambda k: why.format(pts[k], eig[k]))
    g = np.where(ok[:, None, None], g, eye)
    d = _evaluate(d_prog, pts, reasons)
    _reject(reasons, ~np.isfinite(d).all(axis=1), lambda k: f"metric derivatives are not finite at {pts[k]}")
    g_inv = np.linalg.inv(g)
    resid = np.max(np.abs(g_inv @ g - eye), axis=(1, 2))
    bad = resid > 1e-12 * np.maximum(1.0, np.max(np.abs(g_inv), axis=(1, 2)))
    ok = _reject(reasons, bad, lambda k: f"inverse-metric residual {resid[k]:.3e} exceeds tolerance")
    dg, dbg, ddg = _split(d[ok], n, (n, n))
    return MetricJet(pts[ok], g[ok], dg, dbg, ddg, g_inv[ok]), reasons


def metric_jets(spec: MetricSpec, points) -> MetricJet:
    """Jets of spec at a batch of points, shape (m, n), as one batched MetricJet.

    One pass of the g program and one of the derivative program over the
    whole batch.  Raises the MetricError or EvaluationError of the first
    point that fails a check (see _jets).
    """
    jets, reasons = _jets(spec, points)
    for why in reasons:
        if why is not None:
            raise why
    return jets


def metric_jet(spec: MetricSpec, p) -> MetricJet:
    """Jet of spec at a single point of C^n."""
    return metric_jets(spec, np.asarray(p, dtype=complex)[None, :])[0]


def factor_jet(F: ex.Expr, p, n: int) -> FactorJet:
    """Jet of a real-valued scalar factor F (value, gradients, mixed Hessian).

    p is one point, shape (n,), or a batch, shape (m, n), giving a batched
    FactorJet; one compile and one run of each program either way.
    """
    pts = np.asarray(p, dtype=complex)
    batch = pts.reshape(-1, n)
    v_prog, d_prog = _compile_jet([F], n)
    vals = ex.evaluate(v_prog, batch)[:, 0]
    bad = int(np.argmax(np.abs(vals.imag)))
    if abs(vals[bad].imag) > 1e-10:
        raise ValueError(f"conformal factor is not real at {batch[bad]} (Im = {vals[bad].imag:.3e})")
    jets = FactorJet(batch, vals.real, *_split(ex.evaluate(d_prog, batch), n, ()))
    return jets if pts.ndim == 2 else jets[0]
