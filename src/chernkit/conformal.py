"""Conformal changes g~ = e^{2F} g and their effect on curvature.

With the differentiation pair written first, the transformation law is

    R~_{i jbar k lbar} = e^{2F} (R_{i jbar k lbar} - 2 g_{k lbar} F_{i jbar})

where F_{i jbar} = d_i dbar_j F.  Tracing gives, with Delta F = g^{k lbar} F_{k lbar},

    e^{2F} u~ = u - 2 n Delta F        e^{2F} v~ = v - 2 Delta F

which on surfaces (n = 2) read e^{2F} u~ = u - 4 Delta F and
e^{2F} v~ = v - 2 Delta F.  Everything here is cross-checked against direct
recomputation of the curvature of e^{2F} g.  The kernels take one point or a
batch of jets, like those of geometry, and evaluate no metric or factor
themselves: the caller passes the jets of g, F and e^{2F} g.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .dsl import MetricSpec
from .geometry import ChernCurvature, chern_curvature, ricci_bundle
from .jets import FactorJet, MetricJet, _real
from .mixed import MixedParams, _constancy_residual, _finite, _form

__all__ = [
    "conformal_metric",
    "conformal_curvature_via_formula",
    "chern_laplacian",
    "surface_scalar_relation_residual",
    "conformal_constancy_residual",
]


def conformal_metric(spec: MetricSpec, F: ex.Expr) -> MetricSpec:
    """Spec of e^{2F} g, built symbolically; the domain is inherited."""
    scale = ex.exp(ex.mul(ex.const(2), F))
    entries = [
        [ex.mul(scale, spec.entries[i][j]) for j in range(spec.n)] for i in range(spec.n)
    ]
    return MetricSpec(
        n=spec.n, entries=entries, name=f"{spec.name}-conformal", domain=spec.domain
    )


def conformal_curvature_via_formula(Rc: ChernCurvature, f_jet: FactorJet) -> ChernCurvature:
    """Predicted coordinate-frame curvature of e^{2F} g, carrying e^{2F} g, without re-deriving it."""
    if Rc.frame != "coordinate":
        raise ValueError("the conformal law applies to coordinate-frame components")
    scale = np.exp(2 * np.asarray(f_jet.value))[..., None, None]
    corr = np.einsum("...ij,...kl->...ijkl", f_jet.hess, Rc.g)
    return ChernCurvature(scale[..., None, None] * (Rc.tensor - 2 * corr), "coordinate", scale * Rc.g)


def chern_laplacian(jet: MetricJet, f_jet: FactorJet) -> float:
    """Delta F = g^{k lbar} d_k dbar_l F (real for real F)."""
    return _real(np.trace(jet.g_inv @ f_jet.hess, axis1=-2, axis2=-1), "Laplacian of a real factor")


def surface_scalar_relation_residual(jet: MetricJet, f_jet: FactorJet, tilde_jet: MetricJet):
    """Residuals (r_u, r_v) of the surface scalar laws (n = 2 only).

    r_u = |e^{2F} u~ - (u - 4 Delta F)|, r_v = |e^{2F} v~ - (v - 2 Delta F)|,
    from the jets of g, of F and of e^{2F} g (as conformal_metric builds it),
    which must be at the same points: one point gives two floats, a batch of
    m points two (m,) arrays.
    """
    if jet.n != 2:
        raise ValueError("surface scalar relations require n = 2")
    if not (np.array_equal(jet.point, f_jet.point) and np.array_equal(jet.point, tilde_jet.point)):
        raise ValueError("the jets of g, F and e^{2F} g must be at the same points")
    base = ricci_bundle(chern_curvature(jet))
    lap = chern_laplacian(jet, f_jet)
    tilde = ricci_bundle(chern_curvature(tilde_jet))
    scale = np.exp(2 * f_jet.value)
    return np.abs(scale * tilde.u - (base.u - 4 * lap)), np.abs(scale * tilde.v - (base.v - 2 * lap))


def conformal_constancy_residual(Rc: ChernCurvature, f_jet: FactorJet, params: MixedParams, f: float) -> float:
    """Residual of the base-metric identity equivalent to C_{alpha,beta}(e^{2F} g) == f.

    All curvature quantities, g among them, are those of Rc, the base metric; the conformal
    factor enters through its mixed Hessian and e^{2F}:

        alpha (rho x g, 4 terms) + beta (R, 4 orderings)
        - 2 (n alpha + beta) [g_{i jbar} F_{k lbar} + g_{k jbar} F_{i lbar}
                              + g_{i lbar} F_{k jbar} + g_{k lbar} F_{i jbar}]
        = 2 f e^{2F} (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar}),

    i.e. sym(T - 2 (n alpha + beta) g (x) ddbar F - f e^{2F} g (x) g) = 0 with T as in
    mixed._form; returns max |LHS - RHS|, which for F = 0 is the plain constancy residual.
    MetricError when that tensor is not finite, as when the weights overflow 2 (n alpha + beta).
    """
    if Rc.frame != "coordinate":
        raise ValueError("the conformal constancy identity uses coordinate components")
    g_ddbar_F = np.einsum("...ij,...kl->...ijkl", Rc.g, f_jet.hess)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as MetricError by _finite
        T = _form(Rc, params).tensor - 2 * (Rc.n * params.alpha + params.beta) * g_ddbar_F
    _finite(T, params)
    return _constancy_residual(T, Rc.g, f * np.exp(2 * f_jet.value))
