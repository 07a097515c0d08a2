"""The battery's grouped criteria, one pass per sample: the reference for their grouped runs.

chernkit.checks groups samples with checks._grouped: sphere-average and
trace-identity run over all the metrics of one dimension at once, and
conformal-law evaluates each factor and conformal metric once over the points
of all of a metric's samples.  These are the recipes they replaced: the
curvature, the unitary frame and the Ricci traces taken for each metric on
its own, one mixed_curvature call per metric and pair, and for conformal-law
a factor jet and a freshly built e^{2F} g evaluated at each sample's own
points; the tests check that both give the same outcomes.
"""

import numpy as np

from chernkit.catalog import builtin, names
from chernkit.checks import _FACTORS, _TRACE_CONFIGS, _average_pairs, _outcome, _sampled, _unitary, _worst
from chernkit.conformal import conformal_curvature_via_formula, conformal_metric, surface_scalar_relation_residual
from chernkit.dsl import parse_expression
from chernkit.geometry import chern_curvature, ricci_bundle
from chernkit.jets import _max_abs, factor_jet, metric_jets
from chernkit.mixed import (
    MixedParams,
    _sphere_design,
    mixed_curvature,
    sphere_average_closed_form,
    trace_identity_residual,
)


def sphere_average():
    out = []
    pairs = _average_pairs()
    for name in names():
        pt, Ru = _unitary(name, 1, 71)
        Ru, n = Ru[0], Ru.n
        bundle = ricci_bundle(Ru)
        Z, w = _sphere_design(n)
        for params in pairs:
            closed = sphere_average_closed_form(bundle, params)
            check_id = f"sphere-average/a{params.alpha:+.2f}-b{params.beta:+.2f}"
            res = abs(w @ mixed_curvature(Ru, params, Z) - closed)
            out.append(_outcome(check_id, name, res, 1e-12 * max(1.0, abs(closed)), "derived", pt[0]))
    pt, Ru = _unitary("hopf-2", 1, 72)
    Z, w = _sphere_design(2)
    res = abs(w @ mixed_curvature(Ru[0], MixedParams(0.0, 1.0), Z) - 0.5)
    out.append(_outcome("sphere-average/hopf-half", "hopf-2", res, 1e-12, "derived", pt[0]))
    return out


def trace_identity():
    out = []
    for name, (a, b_) in _TRACE_CONFIGS:
        params = MixedParams(a, b_)
        pts, Ru = _unitary(name, 20, 61)
        bundle = ricci_bundle(Ru)
        f = sphere_average_closed_form(bundle, params)
        res = trace_identity_residual(bundle, params, f)
        out.append(_worst(f"trace-identity/alpha{a}-beta{b_}", name, res, 1e-8, "closed-form", pts))
    return out


def conformal_law():
    out = []
    for kind, seed, metrics in (
        ("equivalence", 41, ("fubini-study-2", "hopf-2", "complex-hyperbolic-3")),
        ("scalar-relations", 42, ("fubini-study-2", "hopf-2")),
    ):
        for name in metrics:
            pts, jets, Rc = _sampled(name, 10, seed)
            spec = builtin(name).spec
            for ftext in _FACTORS:
                F = parse_expression(ftext, spec.n)
                f_jet, tilde_jet = factor_jet(F, pts), metric_jets(conformal_metric(spec, F), pts)
                if kind == "equivalence":
                    direct = chern_curvature(tilde_jet).tensor
                    pred = conformal_curvature_via_formula(Rc, f_jet)
                    res = _max_abs(pred.tensor - direct, 4) / np.maximum(1.0, _max_abs(direct, 4))
                else:
                    res = np.maximum(*surface_scalar_relation_residual(jets, f_jet, tilde_jet))
                out.append(_worst(f"conformal-law/{kind}/{ftext}", name, res, 1e-8, "derived", pts))
    return out
