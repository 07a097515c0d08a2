"""Mixed curvature: values, averages, extremization vs a dense grid oracle."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import recombined_reference as recombined

from chernkit import cli, mixed
from chernkit import expr as ex
from chernkit.catalog import builtin, names, sample_points
from chernkit.conformal import conformal_constancy_residual, conformal_metric
from chernkit.dsl import parse_expression, parse_metric
from chernkit.geometry import (
    ChernCurvature,
    _in_frame,
    _quartic,
    _rho1,
    chern_curvature,
    orthonormal_frame,
    ricci_bundle,
    to_unitary_frame,
)
from chernkit.jets import MetricError, factor_jet, metric_jet, metric_jets
from chernkit.mixed import (
    _BLOCK,
    _PAULI,
    MixedParams,
    _ascend,
    _axis_and_bisector_seeds,
    _bloch_candidates,
    _extrema,
    _gradient,
    _objective,
    _scaled_form,
    _sphere_design,
    _best,
    _sym2_table,
    _symmetric_square,
    constancy_tensor_residual,
    extremize,
    mixed_curvature,
    sphere_average_closed_form,
    sphere_average_monte_carlo,
    sphere_average_monte_carlo_many,
    trace_identity_residual,
)


def _unitary_data(Ru):
    """(R, rho1) of one point's unitary-frame curvature; there rho1 is R's trace over (k, l)."""
    assert Ru.frame == "unitary"
    return Ru.tensor, np.einsum("...kk->...", Ru.tensor)


def _form(R, rho, g, params):
    """T = alpha rho (x) g + beta R from rho and R given apart."""
    return params.alpha * np.einsum("...ij,...kl->...ijkl", rho, g) + params.beta * R


def _unitary_setup(name, seed=0):
    entry = builtin(name)
    jet = metric_jet(entry.spec, sample_points(entry, 1, seed)[0])
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    return jet, Ru


GENERIC_2 = Path(__file__).parent / "data" / "generic-2.metric"
GENERIC_3 = Path(__file__).parent / "data" / "generic-3.metric"


def _generic_curvatures(path, count, seed):
    """Unitary-frame curvature of a generic file metric at count seeded points."""
    spec = parse_metric(path.read_text(), name=path.stem)
    jets = metric_jets(spec, spec.domain.sample(spec.n, count, np.random.default_rng(seed)))
    return to_unitary_frame(chern_curvature(jets), jets)


def _grid_extrema(Ru, params, m_theta=241, m_phi=480):
    """Dense direction grid on the unit sphere of C^2 (modulo overall phase)."""
    R = Ru.tensor
    rho = np.einsum("ijkk->ij", R)
    theta = np.linspace(0, np.pi / 2, m_theta)
    phi = np.linspace(0, 2 * np.pi, m_phi, endpoint=False)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    Z = np.stack(
        [np.cos(T).ravel(), (np.sin(T) * np.exp(1j * P)).ravel()], axis=1
    )
    Zc = np.conj(Z)
    vals = params.alpha * np.einsum("ij,bi,bj->b", rho, Z, Zc).real
    vals = vals + params.beta * np.einsum("ijkl,bi,bj,bk,bl->b", R, Z, Zc, Z, Zc).real
    return float(vals.min()), float(vals.max())


def test_params_validation():
    with pytest.raises(ValueError):
        MixedParams(0.0, 0.0)


def test_hopf_vanishing_combination():
    jet, Ru = _unitary_setup("hopf-2", seed=1)
    params = MixedParams(1.0, -2.0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        X = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(mixed_curvature(Ru, params, X)) < 1e-13


def test_adm_axis_value():
    # rho1(e1) + H(e1) = -1 + -1 = -2 for alpha = beta = 1
    entry = builtin("adm-product-surface")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 3)[0])
    Rc = chern_curvature(jet)
    val = mixed_curvature(Rc, MixedParams(1.0, 1.0), [1, 0])
    assert abs(val - (-2.0)) < 1e-11


def test_scale_invariance_and_linearity():
    jet, Ru = _unitary_setup("hopf-3", seed=4)
    rng = np.random.default_rng(5)
    X = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p1, p2 = MixedParams(0.4, 1.1), MixedParams(-0.9, 0.3)
    v1 = mixed_curvature(Ru, p1, X)
    v2 = mixed_curvature(Ru, p2, X)
    v12 = mixed_curvature(Ru, MixedParams(p1.alpha + p2.alpha, p1.beta + p2.beta), X)
    assert abs(v12 - (v1 + v2)) < 1e-12
    for lam in (3.0, -2j, 0.7 + 0.7j):
        assert abs(mixed_curvature(Ru, p1, lam * X) - v1) < 1e-10
    with pytest.raises(ValueError, match="zero vector"):
        mixed_curvature(Ru, p1, [0, 0, 0])


def test_mixed_curvature_that_is_not_real_is_a_metric_error():
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    R[0, 0, 0, 0] = 1j  # breaks R_{i jbar k lbar} = conj(R_{j ibar l kbar})
    Rc = ChernCurvature(R, "unitary")
    for params in (MixedParams(0.0, 1.0), MixedParams(1.0, 0.0), MixedParams(1.0, 1.0)):
        with pytest.raises(MetricError, match="real"):
            mixed_curvature(Rc, params, [1, 0])


def test_weights_that_overflow_the_mixed_tensor_are_a_metric_error_without_a_warning():
    # the suite turns every RuntimeWarning into an error, so an overflow inside T would fail here first
    p = np.array([0.3, 0.1])
    Rc = chern_curvature(metric_jet(builtin("hopf-2").spec, p))
    params = MixedParams(1e308, 1.0)
    for call in (lambda: mixed_curvature(Rc, params, [1, 0]),
                 lambda: constancy_tensor_residual(Rc, params, 0.0),
                 lambda: conformal_constancy_residual(Rc, factor_jet(ex.ZERO, p), params, 0.0)):
        with pytest.raises(MetricError, match=r"^mixed curvature tensor not finite for alpha=1e\+308, beta=1\.0$"):
            call()
    # on the flat metric T = 0 is finite, and 2 (n alpha + beta) = inf meets the zeros of g (x) ddbar F
    flat = chern_curvature(metric_jet(builtin("euclidean-2").spec, p))
    with pytest.raises(MetricError, match=r"^mixed curvature tensor not finite for alpha=1e\+308, beta=1\.0$"):
        conformal_constancy_residual(flat, factor_jet(ex.ZERO, p), params, 0.0)


def _catalog_and_random_curvatures():
    """(name, g, R) in coordinate frames: three points of every catalog entry, 20 random tensors per n."""
    out = []
    for name in names():
        entry = builtin(name)
        jets = metric_jets(entry.spec, sample_points(entry, 3, 26))
        out.append((name, jets.g, chern_curvature(jets).tensor))
    rng = np.random.default_rng(27)
    return out + [(f"random-{n}", *recombined.random_curvature(rng, 20, n)) for n in (1, 2, 3, 4)]


def _agree(x, ref):
    return np.max(np.abs(x - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_t_forms_match_the_recombined_reference():
    # value, constancy residual and tangential gradient on T against rho and R recombined term by term
    rng = np.random.default_rng(28)
    for name, g, R in _catalog_and_random_curvatures():
        m, n = g.shape[:2]
        rho = _rho1(np.linalg.inv(g), R)
        Rc = ChernCurvature(R, "coordinate", g)
        Ru = _in_frame(R, orthonormal_frame(g))
        X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        Z = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        c = rng.standard_normal(m)
        for theta in rng.uniform(0, 2 * np.pi, 4):
            params = MixedParams(np.cos(theta), np.sin(theta))
            assert _agree(mixed_curvature(Rc, params, X), recombined.value(R, rho, g, params, X)), name
            want = recombined.constancy(R, rho, g, params, c)
            assert _agree(constancy_tensor_residual(Rc, params, c), want), name
            for R_point in Ru:
                rho_u = _rho1(np.eye(n), R_point)
                new = _gradient(_form(R_point, rho_u, np.eye(n), params), Z)
                old = recombined.gradient(R_point, rho_u, params, Z)
                # the two differ along Z by 2 alpha rho(Z, Zbar) Z; on the unit sphere only the tangential part counts
                new, old = (G - np.sum(G * np.conj(Z), axis=1).real[:, None] * Z for G in (new, old))
                assert _agree(new, old), name


def test_closed_form_average_values():
    jet, Ru = _unitary_setup("hopf-2", seed=6)
    b = ricci_bundle(Ru)
    # (u + v)/6 = (2 + 1)/6 = 0.5 for alpha=0, beta=1
    assert abs(sphere_average_closed_form(b, MixedParams(0.0, 1.0)) - 0.5) < 1e-12
    jet, Ru = _unitary_setup("euclidean-2", seed=6)
    b = ricci_bundle(Ru)
    assert sphere_average_closed_form(b, MixedParams(1.0, 1.0)) == 0


def test_closed_form_average_takes_n_from_the_bundle():
    # [((n+1) alpha + beta) u + beta v] / (n (n+1)) with n = 2, u = 2, v = 1 on hopf-2
    jet, Ru = _unitary_setup("hopf-2", seed=6)
    assert abs(sphere_average_closed_form(ricci_bundle(Ru), MixedParams(1.0, 1.0)) - 1.5) < 1e-12


def test_monte_carlo_matches_closed_form():
    for name in ("hopf-2", "fubini-study-2", "complex-hyperbolic-3", "adm-product-surface"):
        entry = builtin(name)
        n = entry.spec.n
        jet = metric_jet(entry.spec, sample_points(entry, 1, 7)[0])
        Ru = to_unitary_frame(chern_curvature(jet), jet)
        b = ricci_bundle(Ru)
        for params in (MixedParams(0.0, 1.0), MixedParams(1.0, 0.0), MixedParams(1.2, -0.8)):
            mean, stderr = sphere_average_monte_carlo(Ru, np.eye(n), params, 50_000, seed=8)
            closed = sphere_average_closed_form(b, params)
            assert abs(mean - closed) <= 3 * stderr + 1e-12, (name, params)


def test_monte_carlo_exact_zero_cases():
    jet, Ru = _unitary_setup("euclidean-2", seed=9)
    mean, stderr = sphere_average_monte_carlo(Ru, np.eye(2), MixedParams(1.0, 1.0), 10_000, seed=9)
    assert mean == 0 and stderr == 0
    # every sample is analytically zero when n*alpha + beta = 0 (FP noise only)
    jet, Ru = _unitary_setup("hopf-3", seed=10)
    mean, _ = sphere_average_monte_carlo(Ru, np.eye(3), MixedParams(1.0, -3.0), 10_000, seed=10)
    assert abs(mean) < 1e-12


def test_monte_carlo_determinism_and_batch_equivalence():
    jet, Ru = _unitary_setup("fubini-study-2", seed=11)
    params = [MixedParams(0.3, 0.9), MixedParams(1.0, -1.0)]
    singles = [sphere_average_monte_carlo(Ru, np.eye(2), p, 5000, seed=3) for p in params]
    again = [sphere_average_monte_carlo(Ru, np.eye(2), p, 5000, seed=3) for p in params]
    batch = sphere_average_monte_carlo_many(Ru, np.eye(2), params, 5000, seed=3)
    assert singles == again == batch
    with pytest.raises(ValueError, match="1000"):
        sphere_average_monte_carlo(Ru, np.eye(2), params[0], 10, seed=0)


def test_monte_carlo_rejects_a_curvature_not_finite_in_the_unitary_frame():
    spec = parse_metric("dim 1; g[1,1] = 1e-310 + 1e-310*abs2(z)")
    jet = metric_jet(spec, [0.3])
    with pytest.raises(MetricError, match="curvature is not finite in the unitary frame"):
        sphere_average_monte_carlo(chern_curvature(jet), jet.g, MixedParams(1.0, 1.0), 1000)


@pytest.mark.parametrize("name", names())
def test_monte_carlo_is_the_same_from_either_frame(name):
    entry = builtin(name)
    jet = metric_jet(entry.spec, sample_points(entry, 1, 5)[0])
    Rc = chern_curvature(jet)
    params = [MixedParams(1.0, 1.0), MixedParams(0.3, -2.0)]
    coordinate = sphere_average_monte_carlo_many(Rc, jet.g, params, 2000, seed=4)
    assert coordinate == sphere_average_monte_carlo_many(to_unitary_frame(Rc), jet.g, params, 2000, seed=4)


def test_extremize_euclidean_and_space_form():
    jet, Ru = _unitary_setup("euclidean-2", seed=12)
    rep = extremize(Ru, MixedParams(1.0, 1.0))
    assert rep.min_value == rep.max_value == 0.0
    assert rep.spread == 0.0 and rep.converged

    jet, Ru = _unitary_setup("fubini-study-2", seed=12)
    rep = extremize(Ru, MixedParams(0.0, 1.0))
    assert rep.spread < 1e-8
    gmin, gmax = _grid_extrema(Ru, MixedParams(0.0, 1.0))
    assert abs(rep.max_value - gmax) < 1e-6
    assert abs(rep.min_value - gmin) < 1e-6
    assert abs(rep.max_value - 2.0) < 1e-9  # the space-form constant


def test_extremize_hopf_cases_against_grid():
    jet, Ru = _unitary_setup("hopf-2", seed=13)
    rep = extremize(Ru, MixedParams(1.0, -2.0))
    assert rep.spread < 1e-8

    rep = extremize(Ru, MixedParams(0.0, 1.0))
    gmin, gmax = _grid_extrema(Ru, MixedParams(0.0, 1.0))
    # the optimizer must do at least as well as the dense grid
    assert rep.max_value >= gmax - 1e-9
    assert rep.min_value <= gmin + 1e-9
    assert abs(rep.max_value - gmax) < 1e-4
    assert abs(rep.min_value - gmin) < 1e-4
    assert rep.spread > 1e-2
    # H on the hopf surface spans exactly [0, 1]
    assert abs(rep.min_value) < 1e-12
    assert abs(rep.max_value - 1.0) < 1e-12


def test_extremize_generic_params_against_grid():
    jet, Ru = _unitary_setup("hopf-2", seed=14)
    params = MixedParams(0.6, 1.4)
    rep = extremize(Ru, params)
    gmin, gmax = _grid_extrema(Ru, params)
    assert rep.max_value >= gmax - 1e-9
    assert rep.min_value <= gmin + 1e-9
    assert abs(rep.max_value - gmax) < 1e-4
    assert abs(rep.min_value - gmin) < 1e-4


def test_extremize_report_invariants():
    jet, Ru = _unitary_setup("hopf-2", seed=15)
    rep = extremize(Ru, MixedParams(0.0, 1.0))
    assert rep.min_value <= rep.max_value
    assert rep.spread >= 0
    assert abs(np.linalg.norm(rep.argmin) - 1) < 1e-12
    assert abs(np.linalg.norm(rep.argmax) - 1) < 1e-12
    # certified at n = 2 too: no ascent start
    assert rep.restarts_used == 0 and rep.converged
    again = extremize(Ru, MixedParams(0.0, 1.0))
    assert rep.min_value == again.min_value
    assert rep.max_value == again.max_value
    assert np.array_equal(rep.argmin, again.argmin)
    assert np.array_equal(rep.argmax, again.argmax)
    assert abs(rep.bound_gap) <= 1e-13 * max(1.0, np.max(np.abs(Ru.tensor)))
    # certified at n = 3 on hopf: the Sym^2 bounds are met, no ascent start
    jet, Ru = _unitary_setup("hopf-3", seed=15)
    rep = extremize(Ru, MixedParams(0.0, 1.0))
    assert rep.restarts_used == 0 and rep.converged
    assert abs(rep.bound_gap) <= 1e-13 * max(1.0, np.max(np.abs(Ru.tensor)))
    # the ascent where the bounds are not met: 3 axes + 9 bisectors + 16 random restarts
    Ru = _generic_curvatures(GENERIC_3, 1, seed=15)[0]
    rep = extremize(Ru, MixedParams(0.0, 1.0))
    assert rep.restarts_used == 28 and rep.converged
    assert rep.bound_gap > 1e-3


def test_constancy_tensor_residual_cases():
    jet, Ru = _unitary_setup("euclidean-2", seed=16)
    assert constancy_tensor_residual(Ru, MixedParams(1.0, 2.0), 0.0) == 0

    jet, Ru = _unitary_setup("hopf-2", seed=16)
    assert constancy_tensor_residual(Ru, MixedParams(1.0, -2.0), 0.0) < 1e-12

    jet, Ru = _unitary_setup("fubini-study-2", seed=16)
    params = MixedParams(0.0, 1.0)
    rep = extremize(Ru, params)
    c = 0.5 * (rep.min_value + rep.max_value)
    assert constancy_tensor_residual(Ru, params, c) < 1e-8
    # and a wrong constant is detected
    assert constancy_tensor_residual(Ru, params, c + 0.1) > 1e-2


def test_constancy_detectors_agree():
    # tensor residual ~ 0 iff the extremize spread ~ 0, across catalog configs
    configs = [
        ("fubini-study-2", MixedParams(0.0, 1.0), True),
        ("hopf-2", MixedParams(1.0, -2.0), True),
        ("hopf-2", MixedParams(0.0, 1.0), False),
        ("adm-product-surface", MixedParams(1.0, 1.0), False),
        ("adm-product-surface", MixedParams(1.0, -1.0), True),
    ]
    for name, params, constant in configs:
        jet, Ru = _unitary_setup(name, seed=17)
        rep = extremize(Ru, params)
        mid = 0.5 * (rep.min_value + rep.max_value)
        resid = constancy_tensor_residual(Ru, params, mid)
        if constant:
            assert rep.spread < 1e-8 and resid < 1e-8, name
        else:
            assert rep.spread > 1e-2 and resid > 1e-2, name


def test_constancy_detectors_agree_on_every_catalog_entry():
    # both detectors classify H-constancy identically on the whole catalog
    params = MixedParams(0.0, 1.0)
    for name in names():
        entry = builtin(name)
        n = entry.spec.n
        jet = metric_jet(entry.spec, sample_points(entry, 1, 19)[0])
        Ru = to_unitary_frame(chern_curvature(jet), jet)
        rep = extremize(Ru, params)
        mid = 0.5 * (rep.min_value + rep.max_value)
        resid = constancy_tensor_residual(Ru, params, mid)
        if rep.spread < 1e-8:
            assert resid < 1e-8, name
        else:
            assert rep.spread > 1e-2 and resid > 1e-2, name


def test_trace_identity_cases():
    jet, Ru = _unitary_setup("euclidean-3", seed=18)
    b = ricci_bundle(Ru)
    assert trace_identity_residual(b, MixedParams(1.0, 1.0), 0.0) == 0

    jet, Ru = _unitary_setup("hopf-2", seed=18)
    b = ricci_bundle(Ru)
    assert trace_identity_residual(b, MixedParams(1.0, -2.0), 0.0) < 1e-12

    jet, Ru = _unitary_setup("fubini-study-3", seed=18)
    b = ricci_bundle(Ru)
    params = MixedParams(2.0, 1.0)
    # solve the scalar identity for f, then the matrix identity must hold
    f = sphere_average_closed_form(b, params)
    assert trace_identity_residual(b, params, f) < 1e-10
    assert trace_identity_residual(b, params, f + 0.05) > 1e-3


@pytest.mark.parametrize("name, params", [("hopf-2", MixedParams(1.0, -2.0)), ("hopf-3", MixedParams(1.0, -3.0)),
                                          ("fubini-study-3", MixedParams(0.0, 1.0)),
                                          ("complex-hyperbolic-2", MixedParams(0.0, 1.0))])
def test_trace_identity_in_both_frames(name, params):
    # the matrix identity is tensorial: its right-hand side is (2(n+1)f - alpha u) times the bundle's own metric
    entry = builtin(name)
    jets = metric_jets(entry.spec, sample_points(entry, 5, 19))
    Rc = chern_curvature(jets)
    for b in (ricci_bundle(Rc), ricci_bundle(to_unitary_frame(Rc, jets))):
        f = sphere_average_closed_form(b, params)
        assert np.all(trace_identity_residual(b, params, f) < 1e-12), name
        assert np.all(trace_identity_residual(b, params, f + 0.05) > 1e-3), name
    jet = metric_jet(builtin("hopf-2").spec, [1.0, -2.0])
    assert trace_identity_residual(ricci_bundle(chern_curvature(jet)), MixedParams(1.0, -2.0), 0.0) < 1e-12


def _einsum_reference(R, Z):
    """The contractions written out index by index: R(Z, Zbar, Z, Zbar) and 2 dR(Z, Zbar, Z, Zbar)/dZbar."""
    Zc = np.conj(Z)
    hsc = np.einsum("ijkl,bi,bj,bk,bl->b", R, Z, Zc, Z, Zc).real
    grad = 2.0 * (np.einsum("imkl,bi,bk,bl->bm", R, Z, Z, Zc) + np.einsum("ijkm,bi,bj,bk->bm", R, Z, Zc, Z))
    return hsc, grad


def _random_tensor(rng, n):
    """A random complex rank-4 tensor, with none of the curvature symmetries."""
    return rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matmul_quartic_matches_einsum(n):
    # random complex R (no curvature symmetries), at batch sizes up to several _BLOCKs
    rng = np.random.default_rng(20 + n)
    R = _random_tensor(rng, n)

    def close(x, ref):
        return np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    for b in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        Z = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        hsc0, grad0 = _einsum_reference(R, Z)
        assert close(_gradient(R, Z), grad0) and close(_objective(R, Z), hsc0), b
    X = Z[0]
    single = np.einsum("ijkl,i,j,k,l->", R, X, np.conj(X), X, np.conj(X))
    assert np.ndim(_quartic(R, X)) == 0
    assert abs(_quartic(R, X) - single) <= 1e-12 * abs(single)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monte_carlo_mean_across_block_boundaries(n):
    # the draw is evaluated _BLOCK rows at a time; a row lost or repeated at a boundary moves the mean
    rng = np.random.default_rng(40 + n)
    R = _random_tensor(rng, n)
    Rc = ChernCurvature(R, "unitary")
    params = MixedParams(0.7, -1.3)
    T = _form(R, _rho1(np.eye(n), R), np.eye(n), params)
    for samples in (_BLOCK + 1, 3 * _BLOCK + 7):
        mean, _ = sphere_average_monte_carlo(Rc, np.eye(n), params, samples, seed=5)
        draw = np.random.default_rng(5)
        W = draw.standard_normal((samples, n)) + 1j * draw.standard_normal((samples, n))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        hsc, _ = _einsum_reference(T, W)
        assert abs(mean - np.mean(hsc)) <= 1e-12 * max(1.0, np.max(np.abs(hsc))), samples


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_design_reproduces_every_degree_2_2_moment(n):
    # for any R, the Haar average of R(Z, Zbar, Z, Zbar) is (sum R_{iikk} + sum R_{ikki}) / (n(n+1))
    R = _random_tensor(np.random.default_rng(60 + n), n)
    Z, w = _sphere_design(n)
    assert len(Z) == n + 2 * n * (n - 1)
    exact = (np.einsum("iikk->", R) + np.einsum("ikki->", R)) / (n * (n + 1))
    assert abs(w @ _quartic(R, Z) - exact) <= 1e-13 * abs(exact)


def test_monte_carlo_memory_stays_bounded():
    # the quartic's (samples, n^2) temporaries are built one block at a time
    jet, Ru = _unitary_setup("hopf-4", seed=0)
    tracemalloc.start()
    try:
        sphere_average_monte_carlo(Ru, np.eye(4), MixedParams(1.0, 1.0), 100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak / 2**20


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.6, 1.4), (1.0, -2.0), (-0.9, 0.3)])
def test_extremize_is_invariant_to_the_weights_scale(alpha, beta):
    entry = builtin("hopf-2")
    jet = metric_jet(entry.spec, entry.spec.domain.sample(2, 1, np.random.default_rng(0))[0])
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    ref = extremize(Ru, MixedParams(alpha, beta))
    assert ref.converged
    size = max(1.0, abs(ref.min_value), abs(ref.max_value))
    for k in (1e3, 1e6, 1e150):
        rep = extremize(Ru, MixedParams(k * alpha, k * beta))
        assert rep.converged, k
        for got, want in ((rep.min_value, ref.min_value), (rep.max_value, ref.max_value)):
            assert abs(got - k * want) <= 1e-9 * k * size, (k, got, want)


def test_extremize_converges_when_starts_tie_at_the_extremum():
    # many starts reach this maximum; the one that ends a round-off ahead of
    # the others stalled with its gradient just above tol
    p = np.array([0.5372320275520067 - 0.3073153121730882j, -0.10585678320766859 - 0.5507707468846207j])
    jet = metric_jet(builtin("hopf-2").spec, p)
    rep = extremize(to_unitary_frame(chern_curvature(jet), jet), MixedParams(0.352, 1.731))
    assert rep.converged
    assert abs(rep.max_value - 2.435) < 1e-12 and abs(rep.min_value) < 1e-12


def _scale(R, rho, params):
    """The curvature magnitude extremize measures its tolerances against."""
    return max(abs(params.alpha) * np.max(np.abs(rho)), abs(params.beta) * np.max(np.abs(R)))


def _ascents(R, rho, params):
    """(max, argmax, converged) of T and of -T from the projected-gradient ascent, started,
    stopped and scaled as extremize does at n >= 3."""
    n = R.shape[0]
    rng = np.random.default_rng(0)
    W = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
    starts = np.concatenate([_axis_and_bisector_seeds(n), W])
    S, e, scale = _scaled_form(R, rho, params)
    runs = _ascend(S, starts, 1e-7 * scale, 500), _ascend(-S, starts, 1e-7 * scale, 500)
    return [(float(np.ldexp(value, e)), Z, ok) for value, Z, ok in runs]


def _ascent_extrema(R, rho, params):
    """min and max from the projected-gradient ascent."""
    up, down = _ascents(R, rho, params)
    return -down[0], up[0]


_SURFACES = ("hopf-2", "adm-product-surface", "isosceles-hopf-surface", "fubini-study-2",
             "complex-hyperbolic-2", "euclidean-2")


def _bloch_extrema(S):
    """(min, argmin, max, argmax) over the candidates of the exact Bloch-sphere solve."""
    with np.errstate(divide="ignore", invalid="ignore"):  # as in extremize: non-finite rows are dropped
        Z = _bloch_candidates(S)
    f = _objective(S, Z)
    lo, hi = int(np.argmin(f)), int(np.argmax(f))
    return f[lo], Z[lo], f[hi], Z[hi]


def test_exact_surface_extrema_never_lose_to_the_ascent():
    # 6 surfaces x 10 points x 10 pair directions spread round the circle; on every catalog
    # surface the Sym^2 bounds are met, and the certified extrema are the exact solve's
    cases = 0
    for s, name in enumerate(_SURFACES):
        entry = builtin(name)
        jets = metric_jets(entry.spec, sample_points(entry, 10, 40 + s))
        Ru = to_unitary_frame(chern_curvature(jets), jets)
        offsets = np.random.default_rng(50 + s).uniform(0, 1, len(Ru))
        for R_point, offset in zip(Ru, offsets):
            R, rho = _unitary_data(R_point)
            for theta in 2 * np.pi * (np.arange(10) + offset) / 10:
                params = MixedParams(np.cos(theta), np.sin(theta))
                rep = extremize(R_point, params)
                assert rep.converged and rep.restarts_used == 0
                scale = _scale(R, rho, params)
                assert abs(rep.bound_gap) <= 1e-13 * scale, (name, theta)
                exact_lo, _, exact_hi, _ = _bloch_extrema(_form(R, rho, np.eye(2), params))
                assert abs(rep.min_value - exact_lo) <= 1e-13 * scale, (name, theta)
                assert abs(rep.max_value - exact_hi) <= 1e-13 * scale, (name, theta)
                lo, hi = _ascent_extrema(R, rho, params)
                assert rep.min_value <= lo + 1e-12 * max(1.0, abs(lo)), (name, theta)
                assert rep.max_value >= hi - 1e-12 * max(1.0, abs(hi)), (name, theta)
                for value, Z in ((rep.min_value, rep.argmin), (rep.max_value, rep.argmax)):
                    assert abs(np.linalg.norm(Z) - 1) < 1e-12
                    attained = _objective(_form(R, rho, np.eye(2), params), Z[None])[0]
                    assert abs(attained - value) <= 1e-12 * max(1.0, abs(value)), (name, theta)
                cases += 1
    assert cases == 600


@pytest.mark.parametrize(
    "name, alpha, beta, value",
    [
        ("fubini-study-2", 0.0, 1.0, 2.0),  # b = 0 and A = lambda I: every point is stationary
        ("hopf-2", 1.0, -2.0, 0.0),  # constant C
        ("adm-product-surface", 1.0, -1.0, None),  # constant C
        ("euclidean-2", 0.7, -0.3, 0.0),  # R = 0
    ],
)
def test_exact_surface_extrema_hard_cases(name, alpha, beta, value):
    params = MixedParams(alpha, beta)
    jet, Ru = _unitary_setup(name, seed=21)
    R, rho = _unitary_data(Ru)
    rep = extremize(Ru, params)
    assert rep.converged and rep.restarts_used == 0
    assert rep.spread < 1e-12
    lo, hi = _ascent_extrema(R, rho, params)
    assert rep.min_value <= lo + 1e-12 * max(1.0, abs(lo))
    assert rep.max_value >= hi - 1e-12 * max(1.0, abs(hi))
    if value is not None:
        assert abs(rep.min_value - value) < 1e-12 and abs(rep.max_value - value) < 1e-12
    if name == "euclidean-2":
        assert rep.min_value == rep.max_value == 0.0
    for Z in (rep.argmin, rep.argmax):
        assert abs(np.linalg.norm(Z) - 1) < 1e-12
    again = extremize(Ru, params)
    assert (again.min_value, again.max_value) == (rep.min_value, rep.max_value)
    assert np.array_equal(again.argmin, rep.argmin) and np.array_equal(again.argmax, rep.argmax)


def test_extremize_on_a_curve_is_the_constant():
    jet, Ru = _unitary_setup("complex-hyperbolic-1", seed=22)
    R = Ru.tensor[0, 0, 0, 0].real
    for alpha, beta in ((1.0, 0.0), (0.3, -1.7), (-2.0, 0.5)):
        rep = extremize(Ru, MixedParams(alpha, beta))
        assert rep.min_value == rep.max_value and rep.spread == 0
        assert abs(rep.min_value - (alpha + beta) * R) <= 1e-14 * abs(R)
        assert np.array_equal(rep.argmin, [1.0]) and np.array_equal(rep.argmax, [1.0])
        assert rep.converged and rep.restarts_used == 0


def _sym2_basis(n: int) -> np.ndarray:
    """The dense reference for _sym2_table's coordinates: the orthonormal real basis of Sym^2(C^n)
    inside C^(n^2), one column per pair i <= k: e_i (x) e_i, and (e_i (x) e_k + e_k (x) e_i)/sqrt2 for i < k."""
    pairs = [(i, k) for i in range(n) for k in range(i, n)]
    basis = np.zeros((n * n, len(pairs)))
    for c, (i, k) in enumerate(pairs):
        basis[[i * n + k, k * n + i], c] = 1 / np.sqrt(2) if i != k else 1
    return basis


def test_symmetric_square_reproduces_the_quartic():
    # C(Z) = w* H w with w the coordinates of Zbar (x) Zbar in the orthonormal Sym^2 basis
    rng = np.random.default_rng(26)
    for n in (3, 4):
        A = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
        T = A + np.conj(A).transpose(1, 0, 3, 2)  # conj T_{i jbar k lbar} = T_{j ibar l kbar}, as for R
        basis, H = _sym2_basis(n), _symmetric_square(T)
        assert np.allclose(basis.T @ basis, np.eye(n * (n + 1) // 2), rtol=0, atol=1e-15)
        assert np.allclose(H, H.conj().T, rtol=0, atol=1e-13)
        Z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        w = np.conj(np.einsum("bi,bk->bik", Z, Z)).reshape(5, n * n) @ basis
        quad = np.einsum("bp,pq,bq->b", w.conj(), H, w)
        assert np.allclose(quad, _objective(T, Z), rtol=0, atol=1e-12)


def test_ascent_extrema_lie_within_the_symmetric_square_bounds():
    # on unit Z, C(Z) = <Zbar (x) Zbar, H Zbar (x) Zbar> with H = sym(T)/4 on Sym^2(C^n),
    # T = alpha rho (x) I + beta R, so its eigenvalues there bound the extrema
    rng = np.random.default_rng(23)
    for name in names():
        entry = builtin(name)
        n = entry.spec.n
        if n < 3:
            continue
        jets = metric_jets(entry.spec, sample_points(entry, 2, 24))
        Ru = to_unitary_frame(chern_curvature(jets), jets)
        for R_point in Ru:
            R, rho = _unitary_data(R_point)
            for theta in rng.uniform(0, 2 * np.pi, 3):
                params = MixedParams(np.cos(theta), np.sin(theta))
                lam = np.linalg.eigvalsh(_symmetric_square(_form(R, rho, np.eye(n), params)))
                rep = extremize(R_point, params)
                assert lam[0] - 1e-12 <= rep.min_value and rep.max_value <= lam[-1] + 1e-12, (name, theta)


_FACTOR = "0.3*(z1*zbar2 + z2*zbar1) + 0.2*z3*zbar3"
_CERTIFIED = [pytest.param(name, None, id=name) for name in names() if builtin(name).spec.n >= 3] + [
    pytest.param(name, _FACTOR, id=f"{name}-conformal") for name in ("hopf-3", "hopf-4", "fubini-study-3")
]


@pytest.mark.parametrize("name, factor", _CERTIFIED)
def test_certified_extrema_never_lose_to_the_ascent(name, factor):
    # 5 points x 24 pair directions spread round the circle; on these metrics the Sym^2 bounds are met
    entry = builtin(name)
    spec = entry.spec if factor is None else conformal_metric(entry.spec, parse_expression(factor, entry.spec.n))
    n = spec.n
    jets = metric_jets(spec, sample_points(entry, 5, 60))
    Ru = to_unitary_frame(chern_curvature(jets), jets)
    for R_point in Ru:
        R, rho = _unitary_data(R_point)
        for theta in 2 * np.pi * (np.arange(24) + 0.5) / 24:
            params = MixedParams(np.cos(theta), np.sin(theta))
            scale = _scale(R, rho, params)
            rep = extremize(R_point, params)
            assert rep.converged and rep.restarts_used == 0, theta
            assert abs(rep.bound_gap) <= 1e-13 * scale, theta
            lo, hi = _ascent_extrema(R, rho, params)
            assert rep.max_value >= hi - 1e-14 * scale, (theta, rep.max_value - hi)
            assert rep.min_value <= lo + 1e-14 * scale, (theta, rep.min_value - lo)
            for value, Z in ((rep.min_value, rep.argmin), (rep.max_value, rep.argmax)):
                assert abs(np.linalg.norm(Z) - 1) < 1e-12
                attained = mixed_curvature(R_point, params, Z)
                assert abs(attained - value) <= 1e-14 * scale, theta


def test_uncertified_extrema_are_the_plain_ascent():
    # on the generic file metric the Sym^2 bounds are not met where beta != 0; there extremize
    # returns the two ascents' output bit for bit
    fallbacks = 0
    for R_point in _generic_curvatures(GENERIC_3, 3, seed=31):
        R, rho = _unitary_data(R_point)
        for theta in 2 * np.pi * (np.arange(8) + 0.5) / 8:
            params = MixedParams(np.cos(theta), np.sin(theta))
            rep = extremize(R_point, params)
            if rep.restarts_used == 0:
                continue
            fallbacks += 1
            (hi, argmax, ok_hi), (neg_lo, argmin, ok_lo) = _ascents(R, rho, params)
            assert (rep.min_value, rep.max_value, rep.spread) == (-neg_lo, hi, hi + neg_lo)
            assert np.array_equal(rep.argmin, argmin) and np.array_equal(rep.argmax, argmax)
            assert rep.converged == (ok_hi and ok_lo) and rep.restarts_used == 28
            lam = np.linalg.eigvalsh(_symmetric_square(_form(R, rho, np.eye(3), params)))
            gap = max(lam[-1] - hi, -neg_lo - lam[0])
            assert gap > 1e-13 * _scale(R, rho, params)
            assert abs(rep.bound_gap - gap) <= 1e-14 * _scale(R, rho, params)
    assert fallbacks == 24  # every direction here has beta well away from 0


def test_uncertified_surface_extrema_are_the_exact_solve():
    # on the generic file surface the Sym^2 bounds are not met, not even by the exact extrema;
    # there extremize returns the best of the Bloch-sphere candidates bit for bit
    fallbacks = 0
    for R_point in _generic_curvatures(GENERIC_2, 3, seed=31):
        R, rho = _unitary_data(R_point)
        for theta in 2 * np.pi * (np.arange(8) + 0.5) / 8:
            params = MixedParams(np.cos(theta), np.sin(theta))
            S, e, scale = _scaled_form(R, rho, params)  # the solve runs on T / 2^e, as in extremize
            lo, argmin, hi, argmax = _bloch_extrema(S)
            lam = np.linalg.eigvalsh(_symmetric_square(S))
            gap = max(lam[-1] - hi, lo - lam[0])
            if gap <= 1e-13 * scale:
                continue
            fallbacks += 1
            rep = extremize(R_point, params)
            lo, hi, gap = np.ldexp([lo, hi, gap], e)
            assert (rep.min_value, rep.max_value, rep.spread) == (lo, hi, hi - lo)
            assert np.array_equal(rep.argmin, argmin) and np.array_equal(rep.argmax, argmax)
            assert rep.converged and rep.restarts_used == 0
            assert rep.bound_gap > 1e-13 * _scale(R, rho, params)
            assert abs(rep.bound_gap - gap) <= 1e-14 * _scale(R, rho, params)
    assert fallbacks == 24


@pytest.mark.parametrize("name", ["hopf-2", "hopf-3"])
def test_extremize_takes_one_point(name):
    entry = builtin(name)
    jets = metric_jets(entry.spec, sample_points(entry, 4, 0))
    Ru = to_unitary_frame(chern_curvature(jets), jets)
    shape = str(Ru.tensor.shape)
    with pytest.raises(ValueError, match="one point") as err:
        extremize(Ru, MixedParams(1.0, 1.0))
    assert shape in str(err.value)


def test_extremize_takes_a_unitary_frame():
    jet, _ = _unitary_setup("hopf-2", seed=13)
    with pytest.raises(ValueError, match="to_unitary_frame"):
        extremize(chern_curvature(jet), MixedParams(0.0, 1.0))


@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 1.0), (1.0, -3.0)])
def test_extremize_on_a_subnormal_curvature(alpha, beta):
    # C scales with the curvature: at 2^-1060 times hopf-2's, 2^-e exceeds the largest float,
    # so the tensors are scaled, not the weights
    jet, Ru = _unitary_setup("hopf-2", seed=13)
    params = MixedParams(alpha, beta)
    ref = extremize(Ru, params)
    rep = extremize(ChernCurvature(Ru.tensor * 2.0**-1060, "unitary"), params)
    assert rep.converged
    size = max(abs(ref.min_value), abs(ref.max_value))
    for got, want in ((rep.min_value, ref.min_value), (rep.max_value, ref.max_value)):
        assert abs(np.ldexp(got, 1060) - want) <= 1e-4 * size


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, alpha, beta",
    [("hopf-2", 0.0, 1e-310), ("hopf-2", 0.0, 5e-324), ("fubini-study-2", 1e-315, 0.0), ("hopf-3", 1e-315, -3e-315)],
)
def test_extremize_at_a_subnormal_weight(name, alpha, beta):
    # C scales with the weights: at beta = 1e-310, 2^-e is about 2^1030, and R scaled by all of it would be
    # inf, so the weight takes the rest of the power of two; the extrema are those at weights of normal size
    # times s, to the subnormal spacing 2^-1074
    _, Ru = _unitary_setup(name, seed=13)
    s = max(abs(alpha), abs(beta))
    ref = extremize(Ru, MixedParams(alpha / s, beta / s))
    rep = extremize(Ru, MixedParams(alpha, beta))
    assert rep.converged and rep.path == ref.path == "certified"
    for got, want in ((rep.min_value, ref.min_value), (rep.max_value, ref.max_value)):
        assert abs(got - s * want) <= 1e-12 * s * abs(want) + 2.0**-1072, (got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alpha, beta", [(0.0, 1e-310), (0.0, 5e-324), (1e-315, 0.0), (-3e-310, 2e-315), (1e-320, 1e-320)]
)
def test_scaled_form_at_a_subnormal_weight(alpha, beta):
    # S is T / 2^e bit for bit: with both weights scaled up by 2^1100 into the normal range and rho1, R down by
    # as much, every scaling is exact, so the products round as S's do
    R = _unitary_setup("hopf-3", seed=41)[1].tensor
    rho = np.einsum("ijkk->ij", R)
    S, e, scale = _scaled_form(R, rho, MixedParams(alpha, beta))
    assert np.isfinite(S).all() and 0.5 <= scale <= 2
    wide = MixedParams(np.ldexp(alpha, 1100), np.ldexp(beta, 1100))
    assert np.array_equal(S, _form(_exact_ldexp(R, -e - 1100), _exact_ldexp(rho, -e - 1100), np.eye(3), wide))


def test_extremize_leaves_a_term_of_weight_zero_unscaled():
    # rho1 is subnormal, so 2^-e is about 2^1062; scaled by it, R = 1e10 would be inf, and 0 * inf nan
    R = np.zeros((2, 2, 2, 2), complex)
    R[0, 0, 0, 0], R[0, 1, 0, 1], R[1, 0, 1, 0] = 1e-320, 1e10, 1e10
    rep = extremize(ChernCurvature(R, "unitary"), MixedParams(1.0, 0.0))
    assert (rep.min_value, rep.max_value) == (0.0, 1e-320)


@pytest.mark.parametrize("double", [False, True])
def test_exact_surface_extrema_near_the_hard_case(double):
    # C = c + 2 b.x + x^T A x on the Bloch sphere with b almost orthogonal to
    # an eigenspace of A: there the 6x6 multipliers lose half their digits
    rng = np.random.default_rng(25 + double)
    to_R = np.linalg.inv(_PAULI)
    for eps in 10.0 ** np.arange(-12, -3):
        for _ in range(3):
            lam, V = np.linalg.eigh(rng.standard_normal((3, 3)) + rng.standard_normal((3, 3)).T)
            bt = rng.standard_normal(3)
            if double:
                lam[1] = lam[0]
                bt[:2] *= eps
            else:
                bt[rng.integers(3)] = eps
            Q = np.zeros((4, 4))
            Q[0, 0], Q[0, 1:], Q[1:, 1:] = rng.standard_normal(), V @ bt, V @ np.diag(lam) @ V.T
            Q[1:, 0] = Q[0, 1:]
            R = (to_R @ Q @ to_R.T).reshape(2, 2, 2, 2)
            rep = extremize(ChernCurvature(R, "unitary"), MixedParams(0.0, 1.0))
            lo, hi = _ascent_extrema(R, np.zeros((2, 2)), MixedParams(0.0, 1.0))
            size = np.max(np.abs(Q))
            assert rep.min_value <= lo + 1e-12 * size and rep.max_value >= hi - 1e-12 * size, eps


def test_extremize_reports_non_finite_surface_extrema():
    R = np.full((2, 2, 2, 2), 1e308 + 0j)
    with pytest.raises(MetricError, match="not finite"):
        extremize(ChernCurvature(R, "unitary"), MixedParams(1.0, 1.0))


_SCALED = {"generic-2": GENERIC_2, "generic-3": GENERIC_3,
           "hopf-3": Path(__file__).parents[1] / "src" / "chernkit" / "metrics" / "hopf-3.metric"}


def _counted(f, calls):
    def counted(*args):
        calls.append(f.__name__)
        return f(*args)

    return counted


def _scaled_eval(tmp_path, monkeypatch, name, s):
    """(mixed row, path) of `eval --points 1 --alpha 1 --beta 1` on the metric with g scaled by s."""
    text = re.sub(r"^(g\[\d,\d\]) = (.*)$", rf"\1 = {s}*(\2)", _SCALED[name].read_text(), flags=re.M)
    metric = tmp_path / f"{name}-{s}.metric"
    metric.write_text(text)
    calls = []
    for fallback in (mixed._bloch_candidates, mixed._ascend):
        monkeypatch.setattr(mixed, fallback.__name__, _counted(fallback, calls))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", "--metric", str(metric), "--points", "1", "--alpha", "1", "--beta", "1"]) == 0
    monkeypatch.undo()
    path = "ascent" if "_ascend" in calls else "exact" if calls else "certified"
    return json.loads(out.getvalue())["records"][0]["mixed"][0], path


@pytest.mark.parametrize("name", sorted(_SCALED))
def test_extremize_scales_with_the_metric(tmp_path, monkeypatch, name):
    # g -> s g scales C_{alpha,beta} by 1/s exactly: the extrema follow and no path changes,
    # however far from 1 the curvature is
    ref, ref_path = _scaled_eval(tmp_path, monkeypatch, name, "1")
    size = max(abs(ref["min"]), abs(ref["max"]))
    assert ref_path == {"generic-2": "exact", "generic-3": "ascent", "hopf-3": "certified"}[name]
    for s in ("1e-150", "1e-14", "1e-8", "1e8", "1e14", "1e100"):
        row, path = _scaled_eval(tmp_path, monkeypatch, name, s)
        assert path == ref_path, s
        assert row["converged"] == ref["converged"] and row["restarts_used"] == ref["restarts_used"], s
        for key in ("min", "max"):
            assert abs(row[key] * float(s) - ref[key]) <= 1e-12 * size, (s, key, row[key])


def test_extremize_on_a_tiny_surface_metric_is_finite(tmp_path, monkeypatch):
    # at g scaled by 1e-160 the curvature is about 1e160; the exact surface solve squared it
    row, path = _scaled_eval(tmp_path, monkeypatch, "generic-2", "1e-160")
    assert path == "exact" and np.isfinite(row["min"]) and np.isfinite(row["max"])


def _dense_symmetric_square(S):
    """H = sym(S)/4 on Sym^2(C^n) as basis^T Hf basis, with Hf[(i,k), (j,l)] = sym(S)_{i jbar k lbar}/4."""
    n = S.shape[0]
    swap_holo = np.swapaxes(S, 0, 2)
    sym = S + swap_holo + np.swapaxes(S, 1, 3) + np.swapaxes(swap_holo, 1, 3)
    basis = _sym2_basis(n)
    return basis.T @ np.transpose(sym / 4, (0, 2, 1, 3)).reshape(n * n, n * n) @ basis


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gathered_symmetric_square_matches_the_dense_one(n):
    # the index table gathers the same sums of four entries as the dense reference, up to 4 ulps of max|S|
    rng = np.random.default_rng(90 + n)
    for _ in range(50):
        S = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
        S *= 10.0 ** rng.uniform(-3, 3)
        H, ref = _symmetric_square(S), _dense_symmetric_square(S)
        assert H.shape == ref.shape == (n * (n + 1) // 2,) * 2
        assert np.max(np.abs(H - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(S))


@pytest.mark.parametrize("n", range(1, 9))
def test_sym2_table_is_four_positions_per_entry_of_h(n):
    # N^2 x 4 positions and N^2 weights, N = n(n+1)/2: O(n^4), where a dense map would hold N^2 x n^4
    index, weight, rows, coef = _sym2_table(n)
    N = n * (n + 1) // 2
    assert index.shape == (N * N, 4) and weight.shape == (N * N,)
    assert 0 <= index.min() and index.max() < n**4
    assert not any(t.flags.writeable for t in (index, weight, rows, coef))
    assert _sym2_table(n)[0] is index  # built once per n
    assert set(np.unique(weight)) <= {0.25, np.sqrt(2) / 4, 0.5}
    basis = _sym2_basis(n)
    assert rows.dtype == basis.argmax(axis=1).dtype and np.array_equal(rows, basis.argmax(axis=1))
    assert coef.tobytes() == basis.max(axis=1).tobytes()  # the one nonzero of each row, bit for bit
    v = np.random.default_rng(n).standard_normal((N, 2))
    assert np.array_equal(coef[:, None] * v[rows], basis @ v)


def test_symmetric_square_of_a_batch_is_the_gathered_sum_bit_for_bit():
    # on the space forms the extreme eigenspaces of H are degenerate, so the eigenvectors eigh returns,
    # and with them argmin and argmax, follow H's last bits: each S of a batch gives, bit for bit, the H
    # of one S, and that of the one-S formula, the 2-D gather S.take(index).sum(axis=1)
    rng = np.random.default_rng(53)
    for n in (1, 2, 3, 4):
        index, weight, _, _ = _sym2_table(n)
        shape = (5, n, n, n, n)
        S = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-5, 5, shape)
        H = _symmetric_square(S)
        for k in range(len(S)):
            ref = (S[k].take(index).sum(axis=1) * weight).reshape(H.shape[1:])
            assert H[k].tobytes() == _symmetric_square(S[k]).tobytes() == ref.tobytes(), (n, k)


def test_sym2_table_is_not_built_at_import():
    code = "import chernkit.cli, chernkit.mixed as m; print(m._sym2_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"


def _dense_extremize(Rc, params):
    """(path, min, max, bound_gap) of extremize's certified pipeline with the dense H, the fallback's
    extrema taken from extremize itself (they do not depend on H)."""
    R, rho = _unitary_data(Rc)
    n = R.shape[0]
    S, e, scale = _scaled_form(R, rho, params)
    lam, V = np.linalg.eigh(_dense_symmetric_square(S))
    M = (_sym2_basis(n) @ V[:, [0, -1]]).T.reshape(2, n, n)
    u = np.linalg.svd(M)[0][:, :, 0]
    lo, _, hi, _ = next(_best(S[None], np.concatenate([u, np.conj(u)])[None]))
    if lam[-1] - hi <= 1e-13 * scale and lo - lam[0] <= 1e-13 * scale:
        path = "certified"
    else:
        rep = extremize(Rc, params)
        path, lo, hi = "exact" if n == 2 else "ascent", np.ldexp(rep.min_value, -e), np.ldexp(rep.max_value, -e)
    lo, hi, gap = np.ldexp([lo, hi, max(lam[-1] - hi, lo - lam[0])], e)
    return path, lo, hi, gap


def _every_metric():
    for name in names():
        entry = builtin(name)
        yield pytest.param(entry.spec, sample_points(entry, 4, 71), id=name)
    for path in (GENERIC_2, GENERIC_3):
        spec = parse_metric(path.read_text(), name=path.stem)
        yield pytest.param(spec, spec.domain.sample(spec.n, 4, np.random.default_rng(71)), id=path.stem)


@pytest.mark.parametrize("spec, points", _every_metric())
def test_gathered_extrema_match_the_dense_formula(spec, points):
    # the gathered H moves min, max and bound_gap by at most 6.0e-15 of the curvature's size
    # (measured on every catalog metric and both data files), and never the path
    jets = metric_jets(spec, points)
    for R_point in to_unitary_frame(chern_curvature(jets), jets):
        R, rho = _unitary_data(R_point)
        for theta in 2 * np.pi * (np.arange(12) + 0.25) / 12:
            params = MixedParams(np.cos(theta), np.sin(theta))
            rep = extremize(R_point, params)
            path, lo, hi, gap = _dense_extremize(R_point, params)
            size = 1e-14 * _scale(R, rho, params)
            assert rep.path == path, theta
            assert abs(rep.min_value - lo) <= size and abs(rep.max_value - hi) <= size, theta
            assert abs(rep.bound_gap - gap) <= size, theta


def _layouts(R):
    """R, and the same values in Fortran order and in a strided view: neither is C-contiguous."""
    return R, np.asfortranarray(R), np.repeat(R, 2, axis=-1)[..., ::2]


def _sample_curvatures():
    """Unitary-frame R at one seeded point of a few catalog metrics and of both data files,
    and seeded random complex R for n = 1..4."""
    for name in ("hopf-2", "hopf-3", "fubini-study-3", "isosceles-hopf-surface", "complex-hyperbolic-4"):
        yield name, _unitary_setup(name, seed=41)[1].tensor
    for path in (GENERIC_2, GENERIC_3):
        yield path.stem, _generic_curvatures(path, 1, seed=41)[0].tensor
    rng = np.random.default_rng(43)
    for n in range(1, 5):
        yield f"random-{n}", rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)


def _exact_ldexp(t, e):
    return np.ldexp(t.real, e) + 1j * np.ldexp(t.imag, e)


@pytest.mark.parametrize("name, R", list(_sample_curvatures()))
def test_scaled_form_is_the_form_scaled(name, R):
    # S = T / 2^e with T = alpha rho1 (x) I + beta R, bit for bit, at curvatures of normal size, subnormal
    # (2^-e not a float) and near the largest float; on any layout of R, S is C-contiguous and the same
    n = R.shape[0]
    eye = np.eye(n)
    for size in (None, 2.0**-1060, 1e308 / n):  # None: R as it is; else max|R| = size, so |rho1| <= 1e308
        R0 = R if size is None else R / np.max(np.abs(R)) * size
        for params in (MixedParams(1.0, 1.0), MixedParams(0.0, 1.0), MixedParams(1.0, 0.0), MixedParams(-0.7, 2.5)):
            ref = None
            for Rl in _layouts(R0):
                rho = np.einsum("ijkk->ij", Rl)
                S, e, scale = _scaled_form(Rl, rho, params)
                assert S.flags.c_contiguous
                assert np.array_equal(S, _form(_exact_ldexp(Rl, -e), _exact_ldexp(rho, -e), eye, params)), params
                assert 0.5 <= scale <= 2
                if size is None:  # T itself is finite and normal: scaling back by 2^e is exact
                    assert np.array_equal(S * 2.0**e, _form(Rl, rho, eye, params)), params
                    assert scale * 2.0**e == _scale(Rl, rho, params)
                if ref is None:
                    ref = S, e
                assert np.array_equal(S, ref[0]) and e == ref[1]


@pytest.mark.parametrize("name, R", list(_sample_curvatures()))
def test_extremize_does_not_depend_on_the_layout_of_r(name, R):
    # the same values in Fortran order or a strided view give the same report, alpha rho1 included
    for params in (MixedParams(1.0, 1.0), MixedParams(1.0, -2.0), MixedParams(-1.0, 0.0)):
        reps = [extremize(ChernCurvature(Rl, "unitary"), params) for Rl in _layouts(R)]
        for rep in reps[1:]:
            assert (rep.min_value, rep.max_value, rep.bound_gap, rep.path) == (
                reps[0].min_value, reps[0].max_value, reps[0].bound_gap, reps[0].path
            ), params


@pytest.mark.parametrize(
    "source, path",
    [("hopf-2", "certified"), ("hopf-3", "certified"), (GENERIC_2, "exact"), (GENERIC_3, "ascent")],
)
def test_extremize_reports_its_path(source, path):
    if isinstance(source, Path):
        Ru = _generic_curvatures(source, 3, seed=31)
    else:
        entry = builtin(source)
        jets = metric_jets(entry.spec, sample_points(entry, 3, 31))
        Ru = to_unitary_frame(chern_curvature(jets), jets)
    for R_point in Ru:
        rep = extremize(R_point, MixedParams(1.0, 1.0))
        assert rep.path == path
        assert (rep.restarts_used > 0) == (path == "ascent") and rep.converged


def _report_bytes(rep):
    """Every field of an ExtremumReport as (name, type, bytes)."""
    return [(f.name, type(v), np.asarray(v).tobytes()) for f in fields(rep) for v in [getattr(rep, f.name)]]


def _assert_batch_is_pointwise(Ru, params):
    reps = _extrema(Ru, params)
    assert len(reps) == len(Ru)
    for k, rep in enumerate(reps):
        assert _report_bytes(rep) == _report_bytes(extremize(Ru[k], params)), (k, params)
    return reps


@pytest.mark.parametrize("name", names())
def test_batched_extrema_are_extremize_bit_for_bit(name):
    entry = builtin(name)
    jets = metric_jets(entry.spec, sample_points(entry, 6, 41))
    Ru = to_unitary_frame(chern_curvature(jets), jets)
    n = Ru.n
    for params in (MixedParams(0.0, 1.0), MixedParams(1.0, 1.0), MixedParams(1.0, -float(n)), MixedParams(-0.7, 0.3)):
        _assert_batch_is_pointwise(Ru, params)
    _assert_batch_is_pointwise(Ru[2:3], MixedParams(1.0, 1.0))  # a batch of one


@pytest.mark.parametrize("path, certified", [(GENERIC_2, "hopf-2"), (GENERIC_3, "fubini-study-3")])
def test_batched_extrema_mix_fallbacks_with_certified_points(path, certified):
    # the generic files miss the Sym^2 bounds at (1, 1) (paths exact and ascent); the others are certified
    entry = builtin(certified)
    jets = metric_jets(entry.spec, sample_points(entry, 2, 43))
    generic = _generic_curvatures(path, 2, seed=31).tensor
    R = np.concatenate([generic[:1], to_unitary_frame(chern_curvature(jets), jets).tensor, generic[1:]])
    reps = _assert_batch_is_pointwise(ChernCurvature(R, "unitary"), MixedParams(1.0, 1.0))
    fallback = "exact" if path == GENERIC_2 else "ascent"
    assert [rep.path for rep in reps] == [fallback, "certified", "certified", fallback]


@pytest.mark.parametrize("bad", [1e308, np.nan])
def test_batched_extrema_raise_the_error_of_extremize_at_a_non_finite_point(bad):
    # 1e308: T is finite once scaled, and the 2^e rescale of its extrema overflows; nan: T is not finite
    entry = builtin("hopf-2")
    jets = metric_jets(entry.spec, sample_points(entry, 3, 47))
    R = to_unitary_frame(chern_curvature(jets), jets).tensor.copy()
    R[1] = bad
    params = MixedParams(1.0, 1.0)
    with pytest.raises(MetricError) as one:
        extremize(ChernCurvature(R[1], "unitary"), params)
    with pytest.raises(MetricError) as batch:
        _extrema(ChernCurvature(R, "unitary"), params)
    assert str(batch.value) == str(one.value) == "mixed curvature extrema not finite for alpha=1.0, beta=1.0"


def test_batched_extrema_take_a_unitary_frame():
    entry = builtin("hopf-2")
    jets = metric_jets(entry.spec, sample_points(entry, 3, 13))
    with pytest.raises(ValueError, match="to_unitary_frame"):
        _extrema(chern_curvature(jets), MixedParams(0.0, 1.0))
