"""Curvature pipeline against closed forms and independent symbolic oracles."""

from dataclasses import replace

import numpy as np
import pytest

from chernkit import expr as ex
from chernkit.catalog import builtin, sample_points
from chernkit.dsl import parse_metric
from chernkit.geometry import (
    ChernCurvature,
    chern_curvature,
    hermitian_symmetry_residual,
    holomorphic_sectional,
    kahler_defect,
    kahler_like_defect,
    orthonormal_frame,
    ricci_bundle,
    to_unitary_frame,
    torsion,
)
from chernkit.jets import MetricError, metric_jet, metric_jets
from chernkit.mixed import (
    MixedParams,
    constancy_tensor_residual,
    mixed_curvature,
    sphere_average_closed_form,
    trace_identity_residual,
)
from chernkit.surfaces import c1_squared_pointwise_residual, ricci_combination_residual


def _hopf_closed(z):
    n = len(z)
    eye = np.eye(n)
    return (
        np.einsum("ij,kl->ijkl", eye, eye)
        - np.einsum("i,j,kl->ijkl", np.conj(z), z, eye) / np.vdot(z, z).real
    )


def test_euclidean_curvature_vanishes():
    jet = metric_jet(builtin("euclidean-2").spec, [0.5 + 0.1j, -0.3])
    assert np.max(np.abs(chern_curvature(jet).tensor)) == 0


def test_hopf_unitary_closed_form():
    for n in (2, 3):
        entry = builtin(f"hopf-{n}")
        for jet in metric_jets(entry.spec, sample_points(entry, 30, 1)):
            Ru = to_unitary_frame(chern_curvature(jet), jet)
            assert np.max(np.abs(Ru.tensor - _hopf_closed(jet.point))) < 1e-12


def test_adm_product_unitary_values():
    entry = builtin("adm-product-surface")
    for jet in metric_jets(entry.spec, sample_points(entry, 10, 2)):
        Ru = to_unitary_frame(chern_curvature(jet), jet)
        want = np.zeros((2, 2, 2, 2), dtype=complex)
        want[0, 0, 0, 0] = -1.0
        want[1, 1, 1, 1] = 1.0
        assert np.max(np.abs(Ru.tensor - want)) < 1e-12


def test_orthonormal_frame_examples():
    assert np.array_equal(orthonormal_frame(np.eye(3)), np.eye(3))
    E = orthonormal_frame(np.diag([4.0, 1.0]))
    assert np.max(np.abs(E - np.diag([0.5, 1.0]))) < 1e-15
    # Hopf metric at (2, 0): g = I/4, so the frame is 2 I
    jet = metric_jet(builtin("hopf-2").spec, [2.0, 0.0])
    assert np.max(np.abs(orthonormal_frame(jet.g) - 2 * np.eye(2))) < 1e-14
    with pytest.raises(MetricError):
        orthonormal_frame(np.diag([1.0, -1.0]))


def test_orthonormal_frame_complex_offdiagonal():
    jet = metric_jet(builtin("fubini-study-2").spec, [0.3 + 0.1j, -0.2 + 0.4j])
    E = orthonormal_frame(jet.g)
    check = np.einsum("ij,ia,jb->ab", jet.g, E, np.conj(E))
    assert np.max(np.abs(check - np.eye(2))) < 1e-14


def test_first_ricci_is_log_det_hessian():
    # independent oracle: rho1 = -d dbar log det g, with det built symbolically
    spec = builtin("fubini-study-2").spec
    e = spec.entries
    det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
    logdet = ex.log(det)
    p = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    want = np.empty((2, 2), dtype=complex)
    for i in range(2):
        di = ex.wirtinger_diff(logdet, "holo", i + 1)
        for j in range(2):
            want[i, j] = -ex.evaluate(ex.wirtinger_diff(di, "anti", j + 1), p)
    jet = metric_jet(spec, p)
    b = ricci_bundle(chern_curvature(jet))
    assert np.max(np.abs(b.rho1 - want)) < 1e-11


def test_ricci_trace_consistency_and_symmetries():
    for name in ("fubini-study-3", "hopf-3", "complex-hyperbolic-2", "adm-product-surface"):
        entry = builtin(name)
        n = entry.spec.n
        for jet in metric_jets(entry.spec, sample_points(entry, 10, 3)):
            Rc = chern_curvature(jet)
            assert hermitian_symmetry_residual(Rc) < 1e-10
            b = ricci_bundle(Rc)
            gi = jet.g_inv
            assert np.max(np.abs(b.rho1 - b.rho1.conj().T)) < 1e-10
            assert np.max(np.abs(b.rho2 - b.rho2.conj().T)) < 1e-10
            assert np.max(np.abs(b.rho4 - b.rho3.conj().T)) < 1e-10
            assert abs(np.einsum("ji,ij->", gi, b.rho2).real - b.u) < 1e-9
            assert abs(np.einsum("ji,ij->", gi, b.rho4).real - b.v) < 1e-9


def test_hopf_scalars_and_first_ricci():
    for n in (2, 3, 4):
        entry = builtin(f"hopf-{n}")
        jet = metric_jet(entry.spec, sample_points(entry, 1, 4)[0])
        Ru = to_unitary_frame(chern_curvature(jet), jet)
        b = ricci_bundle(Ru)
        assert abs(b.u - (n * n - n)) < 1e-12
        assert abs(b.v - (n - 1)) < 1e-12
        z = jet.point
        want = n * np.eye(n) - n * np.outer(np.conj(z), z) / np.vdot(z, z).real
        assert np.max(np.abs(b.rho1 - want)) < 1e-12


def test_kahler_metrics_have_equal_riccis_and_no_torsion():
    for name in ("fubini-study-2", "complex-hyperbolic-3", "adm-product-surface"):
        entry = builtin(name)
        for jet in metric_jets(entry.spec, sample_points(entry, 10, 5)):
            b = ricci_bundle(chern_curvature(jet))
            for rho in (b.rho2, b.rho3, b.rho4):
                assert np.max(np.abs(b.rho1 - rho)) < 1e-9
            assert abs(b.u - b.v) < 1e-9
            assert np.max(np.abs(torsion(jet).T)) < 1e-10


def test_hopf_torsion_closed_form():
    for n in (2, 3):
        entry = builtin(f"hopf-{n}")
        for jet in metric_jets(entry.spec, sample_points(entry, 10, 6)):
            t = torsion(jet)
            z = jet.point
            want_eta = (1 - n) * np.conj(z) / np.vdot(z, z).real
            assert np.max(np.abs(t.eta - want_eta)) < 1e-12
            assert abs(t.eta_norm2 - (n - 1) ** 2) < 1e-12
            # antisymmetry is structural
            assert np.max(np.abs(t.T + np.swapaxes(t.T, 0, 1))) == 0


def test_u_minus_v_equals_torsion_norm_on_hopf():
    for n in (2, 3):
        entry = builtin(f"hopf-{n}")
        for jet in metric_jets(entry.spec, sample_points(entry, 10, 7)):
            b = ricci_bundle(chern_curvature(jet))
            t = torsion(jet)
            assert abs(b.u - b.v - t.eta_norm2) < 1e-11


def test_kahler_defect_values():
    assert kahler_defect(metric_jet(builtin("euclidean-2").spec, [0.1, 0.2])) == 0
    jet = metric_jet(builtin("fubini-study-2").spec, [0.3, 0.2j])
    assert kahler_defect(jet) < 1e-10
    # hopf at (1, 0): |d_1 g_{2 2bar} - d_2 g_{1 2bar}| = 1
    jet = metric_jet(builtin("hopf-2").spec, [1.0, 0.0])
    assert abs(kahler_defect(jet) - 1.0) < 1e-15


def test_kahler_like_defect_values():
    jet = metric_jet(builtin("fubini-study-2").spec, [0.3, 0.2j])
    assert kahler_like_defect(to_unitary_frame(chern_curvature(jet), jet)) < 1e-9
    # the hopf closed form at (1,0) has R_{2 2bar 1 1bar} = 1 vs R_{1 2bar 2 1bar} = 0
    jet = metric_jet(builtin("hopf-2").spec, [1.0, 0.0])
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    assert abs(kahler_like_defect(Ru) - 1.0) < 1e-14


def test_holomorphic_sectional_values():
    entry = builtin("adm-product-surface")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 8)[0])
    Rc = chern_curvature(jet)
    assert abs(holomorphic_sectional(Rc, [1, 0]) - (-1.0)) < 1e-12
    assert abs(holomorphic_sectional(Rc, [0, 1]) - 1.0) < 1e-12
    jet = metric_jet(builtin("euclidean-2").spec, [0.5, 0.5])
    assert holomorphic_sectional(chern_curvature(jet), [1, 1j]) == 0
    jet = metric_jet(builtin("hopf-2").spec, [1.0, 0.0])
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    assert abs(holomorphic_sectional(Ru, [1, 0])) < 1e-15
    with pytest.raises(ValueError, match="zero vector"):
        holomorphic_sectional(Ru, [0, 0])


def test_hsc_scale_and_frame_invariance():
    entry = builtin("fubini-study-2")
    p = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    jet = metric_jet(entry.spec, p)
    Rc = chern_curvature(jet)
    Ru = to_unitary_frame(Rc, jet)
    rng = np.random.default_rng(9)
    for _ in range(5):
        X = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        h = holomorphic_sectional(Rc, X)
        assert abs(holomorphic_sectional(Rc, lam * X) - h) < 1e-10 * max(1, abs(h))
    # unitary-frame H(e1) equals coordinate-frame H of the first frame column
    e1 = Ru.frame_matrix[:, 0]
    assert abs(
        holomorphic_sectional(Ru, [1, 0])
        - holomorphic_sectional(Rc, e1)
    ) < 1e-10


@pytest.mark.parametrize("s", [1e-100, 1e-200, 1e200])
def test_hsc_of_tiny_and_huge_vectors(s):
    # H and C are scale-invariant; X is scaled by a power of two before its quartic
    entry = builtin("fubini-study-2")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 0)[0])
    Rc = chern_curvature(jet)
    params = MixedParams(1.0, 1.0)
    X = np.array([[1.0, 0.0], [0.3 - 0.2j, 0.7j]])
    h, c = holomorphic_sectional(Rc, X), mixed_curvature(Rc, params, X)
    for got, want in (
        (holomorphic_sectional(Rc, s * X[0]), h[0]),
        (holomorphic_sectional(Rc, s * X), h),
        (mixed_curvature(Rc, params, s * X[0]), c[0]),
        (mixed_curvature(Rc, params, s * X), c),
    ):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (s, got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e155, 1e-290, 1e-305])
def test_hsc_on_a_scaled_hopf_surface(s):
    # H(e1) = 9/35 on hopf-2 at this point, so 9/(35 s) on s times it: |X|^2_g is brought into [1/2, 1)
    # before it is squared, where its square overflowed (1e155), underflowed (1e-290) or fell under a floor
    # that took e1 for the zero vector (1e-305)
    p = [0.5 + 0.1j, 0.3j]
    jet = metric_jet(parse_metric(f"dim 2\ng[1,1] = {s!r}/abs2(z)\ng[2,2] = {s!r}/abs2(z)\n"), p)
    Rc = chern_curvature(jet)
    Rc1 = chern_curvature(metric_jet(builtin("hopf-2").spec, p))
    params = MixedParams(1.0, 1.0)
    assert abs(holomorphic_sectional(Rc1, [1, 0]) - 9 / 35) < 1e-15
    for got, want in ((holomorphic_sectional(Rc, [1, 0]), holomorphic_sectional(Rc1, [1, 0])),
                      (mixed_curvature(Rc, params, [1, 0]), mixed_curvature(Rc1, params, [1, 0]))):
        assert abs(got * s - want) <= 1e-14 * abs(want), (s, got, want)


def test_hsc_past_the_float_range_is_a_metric_error():
    jet = metric_jet(builtin("hopf-2").spec, [0.5 + 0.1j, 0.3j])
    Rc = chern_curvature(jet)
    assert holomorphic_sectional(Rc, [1, 0]) > 0.25  # so 2^1040 times it is past the float range
    huge = replace(Rc, tensor=Rc.tensor * 2.0**1000, g=Rc.g * 2.0**-20, size=Rc.size * 2.0**1000)
    with pytest.raises(MetricError, match="not finite"):
        holomorphic_sectional(huge, [1, 0])
    with pytest.raises(ValueError, match="zero vector"):
        holomorphic_sectional(Rc, [[1, 0], [0, 0]])


def test_a_curvature_carries_exactly_the_metric_of_its_frame():
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    for frame, g in (("coordinate", None), ("unitary", np.eye(2)), ("holomorphic", np.eye(2))):
        with pytest.raises(ValueError, match="coordinate-frame curvature carries g"):
            ChernCurvature(R, frame, g)
    assert np.array_equal(ChernCurvature(R, "unitary").metric, np.eye(2))
    jets = metric_jets(builtin("hopf-2").spec, [[0.5 + 0.1j, 0.3j], [1.0, -2.0]])
    Rc = chern_curvature(jets)
    assert Rc.g is jets.g and ricci_bundle(Rc).g is jets.g
    assert to_unitary_frame(Rc, jets).g is None and ricci_bundle(to_unitary_frame(Rc, jets)).g is None
    assert np.array_equal(Rc[1].metric, jets.g[1])


@pytest.mark.parametrize("name, params", [("hopf-2", MixedParams(1.0, -2.0)), ("adm-product-surface", MixedParams(1.0, -1.0))])
def test_coordinate_and_unitary_frames_agree(name, params):
    # every kernel reads the metric from the curvature or the bundle, so the two routes give the same
    # invariants; X in coordinates is E^-1 X in the unitary frame whose columns are E.  C_{alpha,beta} is
    # the constant 0 on both surfaces
    entry = builtin(name)
    jets = metric_jets(entry.spec, sample_points(entry, 5, 12))
    Rc = chern_curvature(jets)
    Ru = to_unitary_frame(Rc, jets)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    Y = np.linalg.solve(Ru.frame_matrix, X[..., None])[..., 0]
    bc, bu = ricci_bundle(Rc), ricci_bundle(Ru)
    for got, want in ((bc.u, bu.u), (bc.v, bu.v), (holomorphic_sectional(Rc, X), holomorphic_sectional(Ru, Y)),
                      (mixed_curvature(Rc, MixedParams(0.7, 1.3), X), mixed_curvature(Ru, MixedParams(0.7, 1.3), Y))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name
    for R, b in ((Rc, bc), (Ru, bu)):
        f = sphere_average_closed_form(b, params)
        assert np.all(np.abs(f) < 1e-12) and np.all(np.abs(mixed_curvature(R, params, X)) < 1e-12), name
        assert np.all(constancy_tensor_residual(R, params, 0.0) < 1e-12), name
        assert np.all(constancy_tensor_residual(R, params, 0.1) > 1e-2), name
        assert np.all(trace_identity_residual(b, params, 0.0) < 1e-12), name
        assert np.all(ricci_combination_residual(b) < 1e-12), name
        assert np.all(c1_squared_pointwise_residual(b) < 1e-12), name


def test_invariant_scalars_under_frame_change():
    entry = builtin("complex-hyperbolic-2")
    jet = metric_jet(entry.spec, sample_points(entry, 1, 10)[0])
    Rc = chern_curvature(jet)
    b_coord = ricci_bundle(Rc)
    b_unit = ricci_bundle(to_unitary_frame(Rc, jet))
    assert abs(b_coord.u - b_unit.u) < 1e-9
    assert abs(b_coord.v - b_unit.v) < 1e-9


def test_to_unitary_frame_requires_coordinate_input():
    jet = metric_jet(builtin("euclidean-2").spec, [0.1, 0.1])
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    with pytest.raises(ValueError):
        to_unitary_frame(Ru, jet)


_FLAT_PRODUCT = "dim 2\ng[1,1] = 1/abs2(z1)\ng[2,2] = 1/abs2(z2)\n"  # hopf-1 x hopf-1


def test_hand_built_flat_tensors_pass_the_realness_checks():
    # flat hopf-1 and hopf-1 x hopf-1 have R made of O(1) terms that cancel to round-off; a tensor
    # built by hand does not know those terms, so its round-off is measured against max(1, |x|)
    cases = ((builtin("hopf-1").spec, [[0.8 + 0.3j], [-1.1 + 0.6j]]), (parse_metric(_FLAT_PRODUCT), [[0.8 + 0.3j, -0.5j]]))
    for spec, p in cases:
        jets = metric_jets(spec, p)
        Rc = ChernCurvature(chern_curvature(jets).tensor, "coordinate", jets.g)
        b = ricci_bundle(Rc)
        assert np.all(np.abs(b.u) < 1e-12) and np.all(np.abs(b.v) < 1e-12)
        X = np.ones(jets.n) + 0.5j
        for params in (MixedParams(1.0, -1.0), MixedParams(0.0, 1.0)):
            assert np.all(np.abs(mixed_curvature(Rc, params, X)) < 1e-12)


def _scaled(jet, s):
    """The jet of s*g."""
    scaled = {name: s * getattr(jet, name) for name in ("g", "dg", "dbar_g", "ddbar_g")}
    return replace(jet, g_inv=jet.g_inv / s, **scaled)


@pytest.mark.parametrize("s", [1e-305, 1e-290, 1e-150, 1e-100, 1e100, 1e155])
def test_unitary_traces_and_mixed_curvature_scale_with_the_metric(s):
    # u, v and C_{alpha,beta} scale by 1/s; the curvature's size follows R into the unitary frame and
    # into T, so u = 0 on the Kahler product and T = 0 on hopf-2 at 2 alpha + beta = 0 stay real at every s
    X = np.array([0.6 + 0.2j, -0.3 + 0.5j])
    for name, params in (("adm-product-surface", MixedParams(1.0, -1.0)), ("hopf-2", MixedParams(1.0, -2.0))):
        entry = builtin(name)
        jets = metric_jets(entry.spec, sample_points(entry, 3, 9))
        for jet, scale in ((jets, 1.0), (_scaled(jets, s), s)):
            Rc = chern_curvature(jet)
            b = ricci_bundle(to_unitary_frame(Rc, jet))
            got = np.array([b.u, b.v, mixed_curvature(Rc, params, X)]) * scale
            if scale == 1.0:
                want = got
            assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(chern_curvature(jets).size))), (name, s)
