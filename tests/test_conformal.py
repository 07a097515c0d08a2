"""Conformal change laws against direct recomputation of e^{2F} g."""

from dataclasses import replace

import numpy as np
import pytest
import recombined_reference as recombined

from chernkit import expr as ex
from chernkit.catalog import builtin, sample_points
from chernkit.conformal import (
    chern_laplacian,
    conformal_constancy_residual,
    conformal_curvature_via_formula,
    conformal_metric,
    surface_scalar_relation_residual,
)
from chernkit.dsl import parse_expression
from chernkit.geometry import ChernCurvature, _rho1, chern_curvature, kahler_defect, ricci_bundle
from chernkit.jets import factor_jet, metric_jet, metric_jets
from chernkit.mixed import MixedParams, constancy_tensor_residual


def test_zero_factor_is_identity():
    spec = builtin("fubini-study-2").spec
    tilde = conformal_metric(spec, ex.ZERO)
    pts = sample_points(builtin("fubini-study-2"), 10, 0)
    for i in range(2):
        for j in range(2):
            a = ex.evaluate(spec.entries[i][j], pts)
            b = ex.evaluate(tilde.entries[i][j], pts)
            assert np.max(np.abs(np.asarray(a) - b)) < 1e-15
    p = pts[0]
    jet = metric_jet(spec, p)
    Rc = chern_curvature(jet)
    fj = factor_jet(ex.ZERO, p)
    pred = conformal_curvature_via_formula(Rc, fj)
    assert np.array_equal(pred.tensor, Rc.tensor)


def test_constant_factor_scales_curvature():
    c = 0.3
    spec = builtin("hopf-2").spec
    entry = builtin("hopf-2")
    p = sample_points(entry, 1, 1)[0]
    jet = metric_jet(spec, p)
    Rc = chern_curvature(jet)
    tilde = conformal_metric(spec, ex.const(c))
    tjet = metric_jet(tilde, p)
    tRc = chern_curvature(tjet)
    assert np.max(np.abs(tRc.tensor - np.exp(2 * c) * Rc.tensor)) < 1e-10
    # scalars scale by e^{-2c}
    b = ricci_bundle(Rc)
    tb = ricci_bundle(tRc)
    assert abs(tb.u - np.exp(-2 * c) * b.u) < 1e-10
    assert abs(tb.v - np.exp(-2 * c) * b.v) < 1e-10
    # and the Kahler defect scales by e^{2c}
    assert abs(kahler_defect(tjet) - np.exp(2 * c) * kahler_defect(jet)) < 1e-12


def test_flat_metric_becomes_hopf():
    # F = -1/2 log|z|^2 turns the flat metric into delta_ij/|z|^2
    eu = builtin("euclidean-2").spec
    F = parse_expression("-0.5*log(abs2(z))", 2)
    tilde = conformal_metric(eu, F)
    hopf = builtin("hopf-2").spec
    pts = sample_points(builtin("hopf-2"), 10, 2)
    for i in range(2):
        for j in range(2):
            a = np.asarray(ex.evaluate(tilde.entries[i][j], pts))
            b = np.asarray(ex.evaluate(hopf.entries[i][j], pts))
            assert np.max(np.abs(a - b)) < 1e-13


def test_formula_matches_direct_recomputation():
    cases = [
        ("fubini-study-2", "0.1*(z1*zbar1 - z2*zbar2)"),
        ("hopf-2", "0.05*z1*zbar1"),
        ("complex-hyperbolic-3", "0.1*(z1*zbar2 + z2*zbar1)"),
    ]
    for name, ftext in cases:
        entry = builtin(name)
        n = entry.spec.n
        F = parse_expression(ftext, n)
        tilde = conformal_metric(entry.spec, F)
        for p in sample_points(entry, 3, 3):
            jet = metric_jet(entry.spec, p)
            fj = factor_jet(F, p)
            pred = conformal_curvature_via_formula(chern_curvature(jet), fj)
            direct = chern_curvature(metric_jet(tilde, p))
            scale = max(1.0, float(np.max(np.abs(direct.tensor))))
            assert np.max(np.abs(pred.tensor - direct.tensor)) / scale < 1e-8, name


def test_first_ricci_conformal_shift():
    # rho1~ = rho1 - 2 n F_hess in coordinate components
    entry = builtin("fubini-study-2")
    F = parse_expression("0.1*(z1*zbar1 - z2*zbar2)", 2)
    p = sample_points(entry, 1, 4)[0]
    jet = metric_jet(entry.spec, p)
    fj = factor_jet(F, p)
    b = ricci_bundle(chern_curvature(jet))
    tjet = metric_jet(conformal_metric(entry.spec, F), p)
    tb = ricci_bundle(chern_curvature(tjet))
    assert np.max(np.abs(tb.rho1 - (b.rho1 - 4 * fj.hess))) < 1e-9


def test_chern_laplacian_examples():
    eu = builtin("euclidean-2").spec
    p = np.array([0.4 + 0.1j, -0.3 + 0.2j])
    jet = metric_jet(eu, p)
    F = parse_expression("z1*zbar2 + z2*zbar1", 2)
    assert abs(chern_laplacian(jet, factor_jet(F, p))) < 1e-15
    F = parse_expression("z1*zbar1", 2)
    assert abs(chern_laplacian(jet, factor_jet(F, p)) - 1.0) < 1e-15
    # hopf at (1, 0): g^{1 1bar} = |z|^2 = 1
    hopf = builtin("hopf-2").spec
    jh = metric_jet(hopf, [1.0, 0.0])
    assert abs(chern_laplacian(jh, factor_jet(F, np.array([1.0, 0.0]))) - 1.0) < 1e-14


def test_surface_scalar_relations():
    eu = builtin("euclidean-2")
    F = parse_expression("0.1*z1*zbar1 + 0.05*z2*zbar2", 2)
    for p in sample_points(eu, 5, 5):
        r_u, r_v = surface_scalar_relation_residual(eu.spec, F, p)
        assert r_u < 1e-8 and r_v < 1e-8
        # flat base: e^{2F} u~ = -4 Delta F
        jet = metric_jet(eu.spec, p)
        fj = factor_jet(F, p)
        lap = chern_laplacian(jet, fj)
        tjet = metric_jet(conformal_metric(eu.spec, F), p)
        tb = ricci_bundle(chern_curvature(tjet))
        assert abs(np.exp(2 * fj.value) * tb.u + 4 * lap) < 1e-8

    hopf = builtin("hopf-2")
    F = parse_expression("0.05*z1*zbar1", 2)
    pts = sample_points(hopf, 5, 6)
    singles = [surface_scalar_relation_residual(hopf.spec, F, p) for p in pts]
    for r_u, r_v in singles:
        assert r_u < 1e-8 and r_v < 1e-8
    # a batch gives (m,) arrays equal to the per-point calls
    r_u, r_v = surface_scalar_relation_residual(hopf.spec, F, pts)
    assert r_u.shape == r_v.shape == (5,)
    assert np.array_equal(r_u, [s[0] for s in singles]) and np.array_equal(r_v, [s[1] for s in singles])

    # zero factor gives exactly zero residuals
    r_u, r_v = surface_scalar_relation_residual(eu.spec, ex.ZERO, np.array([0.1, 0.2]))
    assert r_u == 0 and r_v == 0

    with pytest.raises(ValueError, match="n = 2"):
        surface_scalar_relation_residual(builtin("euclidean-3").spec, ex.ZERO, [0.1, 0.2, 0.3])


def test_general_dimension_scalar_laws():
    # e^{2F} u~ = u - 2n Delta F and e^{2F} v~ = v - 2 Delta F hold for n = 3 too
    entry = builtin("complex-hyperbolic-3")
    F = parse_expression("0.05*(z1*zbar1 + z2*zbar3 + z3*zbar2)", 3)
    p = sample_points(entry, 1, 7)[0]
    jet = metric_jet(entry.spec, p)
    fj = factor_jet(F, p)
    b = ricci_bundle(chern_curvature(jet))
    lap = chern_laplacian(jet, fj)
    tjet = metric_jet(conformal_metric(entry.spec, F), p)
    tb = ricci_bundle(chern_curvature(tjet))
    s = np.exp(2 * fj.value)
    assert abs(s * tb.u - (b.u - 6 * lap)) < 1e-9
    assert abs(s * tb.v - (b.v - 2 * lap)) < 1e-9


def test_conformal_constancy_degenerates_to_plain_residual():
    entry = builtin("fubini-study-2")
    p = sample_points(entry, 1, 8)[0]
    jet = metric_jet(entry.spec, p)
    Rc = chern_curvature(jet)
    fj = factor_jet(ex.ZERO, p)
    params = MixedParams(0.4, 1.2)
    for f in (0.0, 1.7):
        a = conformal_constancy_residual(Rc, fj, params, f)
        b = constancy_tensor_residual(Rc, params, f)
        assert abs(a - b) < 1e-14


def test_conformal_constancy_flat_to_hopf():
    # e^{2F} (flat) = hopf has C_{1,-2} == 0; the base-metric residual sees it
    eu = builtin("euclidean-2")
    F = parse_expression("-0.5*log(abs2(z))", 2)
    for p in sample_points(builtin("hopf-2"), 5, 9):
        jet = metric_jet(eu.spec, p)
        fj = factor_jet(F, p)
        Rc = chern_curvature(jet)
        resid = conformal_constancy_residual(Rc, fj, MixedParams(1.0, -2.0), 0.0)
        assert resid < 1e-8


def test_conformal_constancy_product_surface_case():
    # on the product surface with alpha + beta = 0 and F = 0, the F-free
    # identity holds with f = 0 (C_{1,-1} vanishes identically there)
    entry = builtin("adm-product-surface")
    for p in sample_points(entry, 5, 11):
        jet = metric_jet(entry.spec, p)
        fj = factor_jet(ex.ZERO, p)
        resid = conformal_constancy_residual(chern_curvature(jet), fj, MixedParams(1.0, -1.0), 0.0)
        assert resid < 1e-9


def test_conformal_constancy_cross_oracle():
    # residual on the base metric equals e^{-2F} times the direct residual on e^{2F} g
    eu = builtin("euclidean-2")
    F = parse_expression("-0.5*log(abs2(z))", 2)
    params = MixedParams(0.7, 1.3)
    for p in sample_points(builtin("hopf-2"), 5, 10):
        jet = metric_jet(eu.spec, p)
        fj = factor_jet(F, p)
        r_base = conformal_constancy_residual(chern_curvature(jet), fj, params, 0.1)
        tjet = metric_jet(conformal_metric(eu.spec, F), p)
        r_direct = constancy_tensor_residual(chern_curvature(tjet), params, 0.1)
        assert abs(r_direct - np.exp(2 * fj.value) * r_base) < 1e-10 * max(1, r_direct)


def test_conformal_constancy_matches_the_recombined_reference():
    # T - 2 (n alpha + beta) g (x) ddbar F against rho and R recombined term by term, with the
    # shift subtracted after symmetrising; catalog jets with a factor, then random g, R and ddbar F
    rng = np.random.default_rng(29)
    for name in ("hopf-2", "adm-product-surface", "fubini-study-3", "hopf-4"):
        entry = builtin(name)
        n = entry.spec.n
        pts = sample_points(entry, 3, 30)
        jets = metric_jets(entry.spec, pts)
        fj = factor_jet(parse_expression("0.1*log(1 + abs2(z)) + 0.05*(z1*zbar1 + z1 + zbar1)", n), pts)
        cases = [(jets, chern_curvature(jets).tensor, fj)]
        g, R = recombined.random_curvature(rng, 3, n)
        H = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        random_fj = replace(fj, hess=H + np.conj(np.swapaxes(H, 1, 2)))
        cases.append((replace(jets, g=g, g_inv=np.linalg.inv(g)), R, random_fj))
        for jet, R, f_jet in cases:
            Rc = ChernCurvature(R, "coordinate", jet.g)
            rho = _rho1(jet.g_inv, R)
            f = rng.standard_normal(3)
            for theta in rng.uniform(0, 2 * np.pi, 4):
                params = MixedParams(np.cos(theta), np.sin(theta))
                got = conformal_constancy_residual(Rc, f_jet, params, f)
                want = recombined.conformal_constancy(R, rho, jet.g, f_jet.hess, params, f * np.exp(2 * f_jet.value))
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), name
