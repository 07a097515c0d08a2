"""Conformal changes g~ = e^{2F} g and their effect on curvature.

With the differentiation pair written first, the transformation law is

    R~_{i jbar k lbar} = e^{2F} (R_{i jbar k lbar} - 2 g_{k lbar} F_{i jbar})

where F_{i jbar} = d_i dbar_j F.  Tracing gives, with Delta F = g^{k lbar} F_{k lbar},

    e^{2F} u~ = u - 2 n Delta F        e^{2F} v~ = v - 2 Delta F

which on surfaces (n = 2) read e^{2F} u~ = u - 4 Delta F and
e^{2F} v~ = v - 2 Delta F.  Everything here is cross-checked against direct
recomputation of the curvature of e^{2F} g.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .dsl import MetricSpec
from .geometry import ChernCurvature, _real, _rho1, chern_curvature, ricci_bundle
from .jets import FactorJet, MetricJet, factor_jet, metric_jet
from .mixed import MixedParams, _constancy_residual, _sym

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


def conformal_curvature_via_formula(
    Rc: ChernCurvature, jet: MetricJet, f_jet: FactorJet
) -> ChernCurvature:
    """Predicted coordinate-frame curvature of e^{2F} g, without re-deriving it."""
    if Rc.frame != "coordinate":
        raise ValueError("the conformal law applies to coordinate-frame components")
    scale = np.exp(2 * f_jet.value)
    corr = np.einsum("ij,kl->ijkl", f_jet.hess, jet.g)
    return ChernCurvature(scale * (Rc.tensor - 2 * corr), "coordinate", Rc.point)


def chern_laplacian(jet: MetricJet, f_jet: FactorJet) -> float:
    """Delta F = g^{k lbar} d_k dbar_l F (real for real F)."""
    return _real(np.trace(jet.g_inv @ f_jet.hess), "Laplacian of a real factor")


def surface_scalar_relation_residual(spec: MetricSpec, F: ex.Expr, p):
    """Residuals (r_u, r_v) of the surface scalar laws at p (n = 2 only).

    r_u = |e^{2F} u~ - (u - 4 Delta F)|, r_v = |e^{2F} v~ - (v - 2 Delta F)|,
    with u~, v~ computed directly on conformal_metric(spec, F).
    """
    if spec.n != 2:
        raise ValueError("surface scalar relations require n = 2")
    jet = metric_jet(spec, p)
    fj = factor_jet(F, p, spec.n)
    base = ricci_bundle(chern_curvature(jet), jet.g)
    lap = chern_laplacian(jet, fj)
    tilde_jet = metric_jet(conformal_metric(spec, F), p)
    tilde = ricci_bundle(chern_curvature(tilde_jet), tilde_jet.g)
    scale = np.exp(2 * fj.value)
    r_u = abs(scale * tilde.u - (base.u - 4 * lap))
    r_v = abs(scale * tilde.v - (base.v - 2 * lap))
    return r_u, r_v


def conformal_constancy_residual(
    jet: MetricJet,
    Rc: ChernCurvature,
    f_jet: FactorJet,
    params: MixedParams,
    f: float,
) -> float:
    """Residual of the base-metric identity equivalent to C_{alpha,beta}(e^{2F} g) == f.

    All curvature quantities are those of the base metric g; the conformal
    factor enters through its mixed Hessian and e^{2F}:

        alpha (rho x g, 4 terms) + beta (R, 4 orderings)
        - 2 (n alpha + beta) [g_{i jbar} F_{k lbar} + g_{k jbar} F_{i lbar}
                              + g_{i lbar} F_{k jbar} + g_{k lbar} F_{i jbar}]
        = 2 f e^{2F} (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar})

    Returns the max absolute component of LHS - RHS; with F = 0 this reduces
    to the plain constancy tensor residual with c = f.
    """
    if Rc.frame != "coordinate":
        raise ValueError("the conformal constancy identity uses coordinate components")
    g = jet.g
    shift = 2 * (jet.n * params.alpha + params.beta) * _sym(np.einsum("ij,kl->ijkl", g, f_jet.hess))
    rho = _rho1(jet.g_inv, Rc.tensor)
    return _constancy_residual(Rc.tensor, rho, g, params, f * np.exp(2 * f_jet.value), shift)
