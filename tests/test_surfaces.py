"""Surface identities: W^- components, Ricci combination, pointwise c_1^2."""

import numpy as np
import pytest

from chernkit import expr as ex
from chernkit.catalog import builtin, sample_points
from chernkit.dsl import MetricSpec, parse_metric
from chernkit.geometry import ChernCurvature, RicciBundle, chern_curvature, ricci_bundle, to_unitary_frame
from chernkit.jets import metric_jet, metric_jets
from chernkit.surfaces import (
    OneOneForm,
    c1_squared_pointwise_residual,
    form_inner,
    ricci_combination_residual,
    wedge_ratio,
    weyl_minus,
)

SURFACES = (
    "euclidean-2",
    "fubini-study-2",
    "complex-hyperbolic-2",
    "hopf-2",
    "adm-product-surface",
    "isosceles-hopf-surface",
)


def _unitary(name, seed):
    entry = builtin(name)
    jets = metric_jets(entry.spec, sample_points(entry, 10, seed))
    return [(jet, to_unitary_frame(chern_curvature(jet))) for jet in jets]


def test_weyl_minus_vanishes_on_self_dual_surfaces():
    # every catalog surface carries some pointwise-constant C_{alpha,beta}
    # (space forms and flat: (0,1); hopf family: (1,-2); the product
    # surface: (1,-1)), so all of them must be self-dual
    for name in SURFACES:
        for jet, Ru in _unitary(name, 1):
            w = weyl_minus(Ru)
            assert max(abs(w.w1), abs(w.w2), abs(w.w3)) < 1e-12, name


def test_weyl_minus_adm_termwise():
    # W3 = (-1 + 1 - 0 ... )/6 = 0 with the only nonzero entries on the axes
    entry = builtin("adm-product-surface")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 2)[0])
    Ru = to_unitary_frame(chern_curvature(jet))
    R = Ru.tensor
    assert abs(R[0, 0, 0, 0] + 1) < 1e-12
    assert abs(R[1, 1, 1, 1] - 1) < 1e-12
    w = weyl_minus(Ru)
    assert abs(w.w3) < 1e-12


def test_weyl_minus_requires_unitary_surface():
    jet = metric_jet(builtin("fubini-study-2").spec, [0.1, 0.2])
    with pytest.raises(ValueError, match="unitary"):
        weyl_minus(chern_curvature(jet))
    jet3 = metric_jet(builtin("euclidean-3").spec, [0.1, 0.2, 0.3])
    Ru3 = to_unitary_frame(chern_curvature(jet3))
    with pytest.raises(ValueError, match="n = 2"):
        weyl_minus(Ru3)


def test_weyl_phase_covariance():
    # under e_k -> e^{i theta_k} e_k, |W1| and W3 are invariant
    entry = builtin("hopf-2")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 3)[0])
    Ru = to_unitary_frame(chern_curvature(jet))
    w = weyl_minus(Ru)
    theta = np.array([0.7, -1.3])
    ph = np.exp(1j * theta)
    R2 = np.einsum(
        "ijkl,i,j,k,l->ijkl", Ru.tensor, ph, np.conj(ph), ph, np.conj(ph)
    )
    w2 = weyl_minus(ChernCurvature(R2, "unitary", frame_matrix=Ru.frame_matrix * ph))
    assert abs(abs(w2.w1) - abs(w.w1)) < 1e-13
    assert abs(w2.w3 - w.w3) < 1e-13


def test_ricci_combination_on_all_surfaces():
    for name in SURFACES:
        for jet, Ru in _unitary(name, 4):
            b = ricci_bundle(Ru)
            assert ricci_combination_residual(b) < 1e-10, name
            # also in the coordinate frame
            bc = ricci_bundle(chern_curvature(jet))
            assert ricci_combination_residual(bc) < 1e-9, name


def test_ricci_combination_hand_value_hopf():
    # in the unitary frame: rho1 + rho2 - 2 Re rho3 = (u - v) I with u - v = 1
    jet = metric_jet(builtin("hopf-2").spec, [1.3, 0.0])
    Ru = to_unitary_frame(chern_curvature(jet))
    b = ricci_bundle(Ru)
    lhs = b.rho1 + b.rho2 - (b.rho3 + b.rho3.conj().T)
    assert np.max(np.abs(lhs - np.eye(2))) < 1e-12
    assert abs((b.u - b.v) - 1.0) < 1e-12


def test_form_inner_and_wedge_normalization():
    # the omega fixture: <omega, omega> = n and omega^omega / (omega^2/2) = 2
    omega = OneOneForm(np.eye(2))
    assert abs(form_inner(omega, omega) - 2.0) < 1e-15
    assert abs(wedge_ratio(omega, omega) - 2.0) < 1e-15
    # synthetic rho1 = omega: residual is exactly zero
    bundle = RicciBundle(np.eye(2), np.eye(2), np.eye(2), np.eye(2), 2.0, 2.0)
    assert c1_squared_pointwise_residual(bundle) < 1e-15


def test_form_inner_positive_definite():
    a = OneOneForm(np.array([[0.0, 0.3 + 0.4j], [0.3 - 0.4j, 0.0]]))
    assert form_inner(a, a) > 0
    with pytest.raises(ValueError, match="Hermitian"):
        OneOneForm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_c1_squared_on_all_surfaces():
    for name in SURFACES:
        for jet, Ru in _unitary(name, 5):
            b = ricci_bundle(Ru)
            assert c1_squared_pointwise_residual(b) < 1e-10, name


def test_c1_squared_on_a_flat_surface_with_nonzero_derivatives():
    # hopf-1 x hopf-1: rho1 is round-off of O(1) terms, and its Hermitian check is measured against them
    spec = parse_metric("dim 2\ng[1,1] = 1/abs2(z1)\ng[2,2] = 1/abs2(z2)")
    jets = metric_jets(spec, [[0.8 + 0.3j, -0.5 + 0.9j], [1.3, 0.7j]])
    Rc = chern_curvature(jets)
    Ru = to_unitary_frame(Rc)
    for b in (ricci_bundle(Rc), ricci_bundle(Ru)):
        assert np.all(c1_squared_pointwise_residual(b) < 1e-12)


@pytest.mark.parametrize("name", ["hopf-2", "isosceles-hopf-surface"])
def test_c1_squared_scales_with_the_metric(name):
    # g -> s g scales rho1 ^ rho1 / (omega^2/2) by 1/s^2 in both frames; its realness is measured against the
    # forms' sizes over |det g|, so the wedge ratio of a scaled hopf surface (which cancels to round-off) is
    # accepted at every s, with a residual at round-off of u^2
    entry = builtin(name)
    pts = sample_points(entry, 4, 3)
    for s in (1e-150, 1e-100, 1e-50, 1e100, 1e150):
        spec = MetricSpec(2, [[ex.mul(ex.const(s), e) for e in row] for row in entry.spec.entries], domain=entry.spec.domain)
        jets = metric_jets(spec, pts)
        Rc = chern_curvature(jets)
        for b in (ricci_bundle(Rc), ricci_bundle(to_unitary_frame(Rc))):
            assert np.all(c1_squared_pointwise_residual(b) <= 1e-13 * b.u**2), s


@pytest.mark.parametrize("s", [1.0, 1e-160, 1e100])
def test_non_hermitian_real_form_is_rejected_at_every_scale(s):
    # measured against the size of its terms, s, a form's Hermitian check has no floor
    with pytest.raises(ValueError, match="non-Hermitian"):
        OneOneForm(s * np.array([[1.0, 1.0], [0.0, 1.0]]), size=s)


def test_c1_squared_adm_hand_values():
    # u = 0, rho1 = diag(-1, 1): wedge ratio -2, u^2 - <rho,rho> = -2
    entry = builtin("adm-product-surface")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 6)[0])
    Ru = to_unitary_frame(chern_curvature(jet))
    b = ricci_bundle(Ru)
    rho = OneOneForm(b.rho1)
    assert abs(wedge_ratio(rho, rho) - (-2.0)) < 1e-12
    assert abs(form_inner(rho, rho) - 2.0) < 1e-12
    assert abs(b.u) < 1e-12


def test_a_form_carries_the_metric_of_its_frame():
    # on hopf-2 at (0.5+0.1i, 0.3i), <rho1, rho1> = 4 and rho1 ^ rho1 / (omega^2/2) = u^2 - 4 = 0 in either
    # frame; the coordinate-frame rho1 measured with I instead of its g read 32.65
    jet = metric_jet(builtin("hopf-2").spec, [0.5 + 0.1j, 0.3j])
    Rc = chern_curvature(jet)
    coordinate, unitary = ricci_bundle(Rc), ricci_bundle(to_unitary_frame(Rc))
    for b in (coordinate, unitary):
        rho = OneOneForm(b.rho1, b.size, b.g)
        assert abs(form_inner(rho, rho) - 4.0) < 1e-12
        assert abs(wedge_ratio(rho, rho) - (b.u**2 - 4.0)) < 1e-12
    assert np.array_equal(OneOneForm(coordinate.rho1, g=jet.g).metric, jet.g)
    assert np.array_equal(OneOneForm(unitary.rho1).metric, np.eye(2))
    with pytest.raises(ValueError, match="different frames"):
        form_inner(OneOneForm(coordinate.rho1, g=jet.g), OneOneForm(unitary.rho1))


def test_dimension_guards():
    b3 = RicciBundle(np.eye(3), np.eye(3), np.eye(3), np.eye(3), 3.0, 3.0)
    with pytest.raises(ValueError, match="n = 2"):
        ricci_combination_residual(b3)
    with pytest.raises(ValueError, match="n = 2"):
        c1_squared_pointwise_residual(b3)
