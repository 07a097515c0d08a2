"""The battery's few-point criteria, one kernel pass per metric: the reference for their grouped runs.

chernkit.checks runs sphere-average and trace-identity over all the metrics
of one dimension at once (checks._by_dimension).  These are the recipes they
replaced, with the curvature, the unitary frame and the Ricci traces taken
for each metric on its own and one mixed_curvature call per metric and pair;
the tests check that both give the same outcomes.
"""

from chernkit.catalog import names
from chernkit.checks import _TRACE_CONFIGS, _average_pairs, _outcome, _unitary, _worst
from chernkit.geometry import ricci_bundle
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
