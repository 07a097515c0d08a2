"""Numeric jets of a metric: g, its first and mixed second derivatives.

Every curvature formula downstream consumes a :class:`MetricJet` — the values
at a batch of points (a leading axis on every array) of

    g_{k lbar},   d_i g_{k lbar},   dbar_j g_{k lbar},   d_i dbar_j g_{k lbar}

plus the inverse metric; ``jets[k]`` is the jet at one point.  The n^2
entries of g are compiled once per MetricSpec into one interned
straight-line program (:attr:`dsl.MetricSpec.program`, kept on the spec,
which cannot change), and each evaluation runs it once over the whole batch
in Wirtinger jet arithmetic, which carries dg, dbar_g and ddbar_g alongside
each value.  It checks g from the value column (finite, Hermitian, positive
definite), then that the derivatives are finite.  Nothing is differentiated
symbolically.  A point that fails a check leaves
the batch with its own reason, and :func:`metric_jets` raises the first
point's.  A conformal factor's jet (:func:`factor_jet`) is one jet run of
the factor's program, checked in the same order.  The one round-off rule
(_bound) lives here too: every kernel's realness and Hermitian checks
measure against it; so does the exact complex scaling by 2^e (_ldexp).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import expr as ex
from .dsl import MetricSpec

__all__ = ["MetricJet", "FactorJet", "MetricError", "metric_jet", "metric_jets", "factor_jet"]

HERMITIAN_TOL = 1e-10  # non-real or non-Hermitian round-off, relative to _bound


class MetricError(ValueError):
    """Metric is not Hermitian/positive definite at an evaluation point."""


class _PerPoint:
    """Indexing over the leading batch axis of a per-point dataclass.

    _CORE names a field and its number of per-point axes; any axis before
    those is the batch axis.  ``obj[k]`` takes every array field at k and
    keeps the other fields, so iterating walks the points (until IndexError);
    the point is built by the class's constructor, so its __post_init__ runs.
    A one-point object has no length; n is the size of the core field's last axis.
    """

    _CORE = ("point", 1)

    @property
    def n(self) -> int:
        return getattr(self, self._CORE[0]).shape[-1]

    def __len__(self) -> int:
        name, ndim = self._CORE
        shape = np.shape(getattr(self, name))
        if len(shape) == ndim:
            raise TypeError(f"{type(self).__name__} holds one point, not a batch")
        return shape[0]

    def __getitem__(self, k):
        len(self)  # a one-point object has no batch axis to index
        values = [getattr(self, name) for name in _field_names(type(self))]
        return type(self)(*[a[k] if isinstance(a, np.ndarray) else a for a in values])


@functools.cache
def _field_names(cls) -> tuple:
    """The names of a per-point dataclass's fields, in the order of its constructor's arguments."""
    return tuple(f.name for f in fields(cls))


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


@dataclass(frozen=True)
class FactorJet(_PerPoint):
    """Pointwise data of a scalar factor F, at one point or a batch: value, gradients, mixed Hessian."""

    point: np.ndarray
    value: float
    grad: np.ndarray       # d_k F
    grad_bar: np.ndarray   # dbar_k F
    hess: np.ndarray       # hess[k, l] = d_k dbar_l F


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H)/2 over the last two axes, halved before the sum so that no entry overflows:
    g made exactly Hermitian, Re(rho3) for rho3."""
    return 0.5 * a + 0.5 * np.conj(np.swapaxes(a, -1, -2))


def _max_abs(x, ndim: int):
    """max |x| over the last ndim axes: a scalar, or an array of the batch shape."""
    return np.max(np.abs(x), axis=tuple(range(-ndim, 0)))[()]


def _hermitian_residual(a: np.ndarray) -> np.ndarray:
    """max|a - a^H| over the last two axes."""
    return _max_abs(a - np.conj(np.swapaxes(a, -1, -2)), 2)


def _bound(size, x):
    """What round-off in a value x is measured against.

    size is the magnitude of the terms x was summed from (a scalar or x's
    shape): x can cancel far below it, its round-off cannot.  It has no
    floor, so a metric s*g passes or fails as g does for any s > 0.  Where
    the terms are not tracked (size None) the bound is max(1, |x|).
    """
    return np.maximum(1.0, np.abs(x)) if size is None else size


def _size(*factors):
    """The product of the magnitudes of the operands a value is summed from, or None if one is None.

    The factors are multiplied left to right, so a small one first keeps
    partial products finite.  A product past the float range is inf: it
    bounds nothing.
    """
    if any(f is None for f in factors):
        return None
    with np.errstate(over="ignore"):
        return math.prod(factors)


def _ldexp(t, e):
    """t 2^e for a complex array, exact: the real and imaginary parts' np.ldexp in one call.

    e is an int, or an integer array with a last axis of length 1 (one exponent per row of t).
    """
    t = np.ascontiguousarray(t, dtype=complex)
    return np.ldexp(t.view(float), e).view(complex)


def _real(x, what: str, size=None):
    """The real part of x, a scalar or an array, checking every element's imaginary part.

    |Im x| may not exceed HERMITIAN_TOL * _bound(size, Re x).
    """
    x = np.asarray(x, dtype=complex)
    bad = np.abs(x.imag) > HERMITIAN_TOL * _bound(size, x.real)
    if np.any(bad):
        raise MetricError(f"{what} should be real, got imaginary part {x.imag[bad][0]:.3e}")
    return x.real[()]


def _split(J, n: int, shape: tuple) -> tuple:
    """The (m, n, *shape), (m, n, *shape) and (m, n, n, *shape) tables d, dbar, d dbar of a jet run."""
    m, k = len(J), 2 * n + 1
    d, dbar, ddbar = J[:, 1 : n + 1], J[:, n + 1 : k], J[:, k:]
    return d.reshape(m, n, *shape), dbar.reshape(m, n, *shape), ddbar.reshape(m, n, n, *shape)


def _reject(reasons: list, ok: np.ndarray, bad, why) -> None:
    """Give each point k that is still ok and where bad holds MetricError(why(k)), and clear ok[k].

    why is called for those points only.
    """
    bad = bad & ok
    if bad.any():
        for k in np.flatnonzero(bad):
            reasons[k] = MetricError(why(k))
        ok &= ~bad


def _evaluate(prog: ex.Program, pts: np.ndarray, reasons: list, ok: np.ndarray) -> np.ndarray:
    """prog's jet run at pts; each point where a guard or log fails gets that EvaluationError as its reason."""
    try:
        return ex.evaluate(prog, pts, jet=True)
    except ex.EvaluationError:  # run again to find the points that failed
        out, failed = ex._run(prog, pts, jet=True)
        for k in np.flatnonzero(failed >= 0):
            reasons[k] = ex.EvaluationError(ex._reason(prog, failed[k]))
        ok &= failed < 0
        return out


def _jets(spec: MetricSpec, points) -> tuple:
    """(jets of the points that pass every check, one reason per point).

    A point's reason is None, or the EvaluationError or MetricError of the
    first check it fails, in this order: the g program, g finite, g
    Hermitian (max|g - g^H| at most HERMITIAN_TOL * max|g| there), every
    eigenvalue of g finite (the largest may overflow where the entries do
    not), g positive definite, the derivatives of the jet run finite, g^-1
    finite (it is not where g is subnormal), and the residual of the inverse
    metric (max|g^-1 g - I| at most 1e-12 * max|g| * max|g^-1|, with g its
    Hermitian part there; past the float range it bounds nothing).  So every
    array of the jets is finite.  Every tolerance scales with g, so g and
    s*g pass or fail alike for any s > 0.  The batch keeps the other points
    in their order.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != spec.n:
        raise ValueError(f"points have {pts.shape[1]} coordinates, metric has n={spec.n}")
    m, n = pts.shape
    eye, reasons, ok = np.eye(n), [None] * m, np.ones(m, dtype=bool)
    J = _evaluate(spec.program, pts, reasons, ok)
    g = J[:, 0].reshape(m, n, n)
    _reject(reasons, ok, ~np.isfinite(g).all(axis=(1, 2)), lambda k: f"metric is not finite at {pts[k]}")
    if not ok.all():  # a failed point's stand-in keeps the checks below finite
        g = np.where(ok[:, None, None], g, eye)
    herm, tol = _hermitian_residual(g), HERMITIAN_TOL * _max_abs(g, 2)
    why = "metric is not Hermitian at {} (residual {:.3e}, tolerance {:.3e})"
    _reject(reasons, ok, herm > tol, lambda k: why.format(pts[k], herm[k], tol[k]))
    g = _hermitian_part(g)
    eig = np.linalg.eigvalsh(g)
    why = "metric is not positive definite at {} (min eigenvalue {:.3e})"
    _reject(reasons, ok, ~np.isfinite(eig).all(axis=1), lambda k: f"metric eigenvalues are not finite at {pts[k]}")
    _reject(reasons, ok, eig[:, 0] <= 0, lambda k: why.format(pts[k], eig[k, 0]))
    if not ok.all():
        g = np.where(ok[:, None, None], g, eye)
    why = "metric derivatives are not finite at {}"
    _reject(reasons, ok, ~np.isfinite(J[:, 1:]).all(axis=(1, 2)), lambda k: why.format(pts[k]))
    g_inv = np.linalg.inv(g)
    _reject(reasons, ok, ~np.isfinite(g_inv).all(axis=(1, 2)), lambda k: f"inverse metric is not finite at {pts[k]}")
    resid = _max_abs(g_inv @ g - eye, 2)
    bad = resid > _size(1e-12, _max_abs(g, 2), _max_abs(g_inv, 2))
    _reject(reasons, ok, bad, lambda k: f"inverse-metric residual {resid[k]:.3e} exceeds tolerance")
    dg, dbg, ddg = _split(J[ok], n, (n, n))
    return MetricJet(pts[ok], g[ok], dg, dbg, ddg, g_inv[ok]), reasons


def metric_jets(spec: MetricSpec, points) -> MetricJet:
    """Jets of spec at a batch of points, shape (m, n), as one batched MetricJet.

    One jet run of the g program over the whole batch.
    Raises the MetricError or EvaluationError of the first point that fails
    a check (see _jets).
    """
    jets, reasons = _jets(spec, points)
    for why in reasons:
        if why is not None:
            raise why
    return jets


def metric_jet(spec: MetricSpec, p) -> MetricJet:
    """Jet of spec at a single point of C^n."""
    return metric_jets(spec, np.asarray(p, dtype=complex)[None, :])[0]


def factor_jet(F: ex.Expr, p) -> FactorJet:
    """Jet of a real-valued scalar factor F (value, gradients, mixed Hessian).

    p is one point, shape (n,), or a batch, shape (m, n), giving a batched
    FactorJet; n is p's last axis.  One compile and one jet run either way.  Raises the
    EvaluationError of a division by zero or log of zero at any point, and the
    MetricError of the first point that fails a check, naming the first it
    fails in _jets's order: F finite, |Im F| at most HERMITIAN_TOL *
    _bound(None, Re F), the derivatives finite.
    """
    pts = np.asarray(p, dtype=complex)
    n = pts.shape[-1]
    batch = pts.reshape(-1, n)
    prog = ex.compile_program([F])
    J = ex.evaluate(prog, batch, jet=True)
    vals = J[:, 0, 0]
    not_real = np.abs(vals.imag) > HERMITIAN_TOL * _bound(None, vals.real)
    bad = np.stack([~np.isfinite(vals), not_real, ~np.isfinite(J[:, 1:]).all(axis=(1, 2))])
    if bad.any():
        k = np.flatnonzero(bad.any(axis=0))[0]
        why = ["is not finite at {}", "is not real at {} (Im = {:.3e})", "derivatives are not finite at {}"]
        raise MetricError("conformal factor " + why[np.argmax(bad[:, k])].format(batch[k], vals[k].imag))
    jets = FactorJet(batch, vals.real, *_split(J, n, ()))
    return jets if pts.ndim == 2 else jets[0]
