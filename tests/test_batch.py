"""Every pointwise kernel on a batch equals its calls on batches of one point, bit for bit."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from chernkit.catalog import builtin, names, sample_points
from chernkit.conformal import chern_laplacian, conformal_constancy_residual, conformal_curvature_via_formula
from chernkit.dsl import parse_expression
from chernkit.geometry import (
    _hermitian_form,
    _rho1,
    chern_curvature,
    hermitian_symmetry_residual,
    holomorphic_sectional,
    kahler_defect,
    kahler_like_defect,
    metric_norm_sq,
    ricci_bundle,
    to_unitary_frame,
    torsion,
)
from chernkit.jets import factor_jet, metric_jets
from chernkit.mixed import (
    MixedParams,
    constancy_tensor_residual,
    mixed_curvature,
    sphere_average_closed_form,
    trace_identity_residual,
)
from chernkit.surfaces import (
    OneOneForm,
    c1_squared_pointwise_residual,
    form_inner,
    ricci_combination_residual,
    wedge_ratio,
    weyl_minus,
)

PARAMS = MixedParams(0.7, -1.3)
# a one-point call against a batch: numpy's scalar complex arithmetic (wedge_ratio and the c1^2 residual) and
# gemv against a stacked matmul (geometry._quartic) round differently, so a 0-d point agrees to round-off only
POINT_TOL = 1e-13


def _unitary(jet):
    return to_unitary_frame(chern_curvature(jet))


def _bundle(jet):
    return ricci_bundle(chern_curvature(jet))


def _ricci(jet):
    b = _bundle(jet)
    return b.rho1, b.rho2, b.rho3, b.rho4, b.u, b.v


def _forms(jet):
    """rho1 and rho2 as real (1,1)-forms."""
    b = _bundle(jet)
    return OneOneForm(b.rho1, b.size, b.g), OneOneForm(b.rho2, b.size, b.g)


def _weyl(jet):
    w = weyl_minus(_unitary(jet))
    return w.w1, w.w2, w.w3


# kernel -> f(jet, factor jet, direction) giving a tuple of arrays; jets may be batches or one point
KERNELS = {
    "chern_curvature": lambda jet, fj, X: (chern_curvature(jet).tensor,),
    "to_unitary_frame": lambda jet, fj, X: (_unitary(jet).tensor, _unitary(jet).frame_matrix),
    "ricci_bundle": lambda jet, fj, X: _ricci(jet),
    "torsion": lambda jet, fj, X: (torsion(jet).T, torsion(jet).eta, torsion(jet).eta_norm2),
    "kahler_defect": lambda jet, fj, X: (kahler_defect(jet),),
    "kahler_like_defect": lambda jet, fj, X: (kahler_like_defect(_unitary(jet)),),
    "hermitian_symmetry_residual": lambda jet, fj, X: (hermitian_symmetry_residual(chern_curvature(jet)),),
    "metric_norm_sq": lambda jet, fj, X: (metric_norm_sq(jet.g, X),),
    "holomorphic_sectional": lambda jet, fj, X: (holomorphic_sectional(chern_curvature(jet), X),),
    "mixed_curvature/coordinate": lambda jet, fj, X: (mixed_curvature(chern_curvature(jet), PARAMS, X),),
    "mixed_curvature/unitary": lambda jet, fj, X: (mixed_curvature(_unitary(jet), PARAMS, X),),
    "constancy_tensor_residual": lambda jet, fj, X: (constancy_tensor_residual(chern_curvature(jet), PARAMS, 0.4),),
    "trace_identity_residual": lambda jet, fj, X: (trace_identity_residual(_bundle(jet), PARAMS, 0.4),),
    "sphere_average_closed_form": lambda jet, fj, X: (sphere_average_closed_form(_bundle(jet), PARAMS),),
    "conformal_curvature_via_formula": lambda jet, fj, X: (
        conformal_curvature_via_formula(chern_curvature(jet), fj).tensor,
    ),
    "chern_laplacian": lambda jet, fj, X: (chern_laplacian(jet, fj),),
    "conformal_constancy_residual": lambda jet, fj, X: (
        conformal_constancy_residual(chern_curvature(jet), fj, PARAMS, 0.4),
    ),
    "form_inner": lambda jet, fj, X: (form_inner(*_forms(jet)),),
    "weyl_minus": lambda jet, fj, X: _weyl(jet),
    "ricci_combination_residual": lambda jet, fj, X: (ricci_combination_residual(_bundle(jet)),),
    "c1_squared_pointwise_residual": lambda jet, fj, X: (c1_squared_pointwise_residual(_bundle(jet)),),
    "wedge_ratio": lambda jet, fj, X: (wedge_ratio(*_forms(jet)),),
}
SURFACE = ("weyl_minus", "ricci_combination_residual", "c1_squared_pointwise_residual", "wedge_ratio")


@pytest.mark.parametrize("name", names())
def test_batched_kernels_equal_stacked_point_calls(name):
    entry = builtin(name)
    n = entry.spec.n
    for count, seed in [(6, 19), (4, 3), (50, 7)]:
        pts = sample_points(entry, count, seed)
        jets = metric_jets(entry.spec, pts)
        fj = factor_jet(parse_expression("0.1*(z1*zbar1 + z1 + zbar1)", n), pts)
        X = pts + np.linspace(1.0, 2.0, n)
        assert len(jets) == len(fj) == len(pts)
        for kernel, f in KERNELS.items():
            if kernel in SURFACE and n != 2:
                continue
            batch = f(jets, fj, X)
            ones = [f(jets[k : k + 1], fj[k : k + 1], X[k : k + 1]) for k in range(count)]
            points = [f(jets[k], fj[k], X[k]) for k in range(count)]
            for part, got in enumerate(batch):
                assert np.array_equal(got, np.concatenate([one[part] for one in ones])), (kernel, part, count)
                want = np.stack([p[part] for p in points])
                assert np.shape(got) == want.shape, (kernel, part)
                assert np.max(np.abs(got - want)) <= POINT_TOL * max(1.0, float(np.max(np.abs(want)))), (kernel, part)


def _complex(rng, shape, order):
    return np.asarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), order=order)


@settings(derandomize=True, database=None, deadline=None, max_examples=200, phases=[Phase.explicit, Phase.generate])
@given(st.integers(1, 4), st.integers(1, 64), st.sampled_from("CF"), st.integers(0, 2**32 - 1))
def test_each_row_of_the_trace_and_the_hermitian_form_equals_its_batch_of_one(n, count, order, seed):
    # random operands in either memory order: the matmul's arithmetic per row does not depend on the batch
    rng = np.random.default_rng(seed)
    R, gi = _complex(rng, (count, n, n, n, n), order), _complex(rng, (count, n, n), order)
    A, X = _complex(rng, (count, n, n), order), _complex(rng, (count, n), order)
    rho, form = _rho1(gi, R), _hermitian_form(A, X)
    for k in range(count):
        assert np.array_equal(rho[k : k + 1], _rho1(gi[k : k + 1], R[k : k + 1])), k
        assert np.array_equal(form[k : k + 1], _hermitian_form(A[k : k + 1], X[k : k + 1])), k


@pytest.mark.parametrize("name", ["hopf-1", "hopf-2", "fubini-study-3", "adm-product-surface", "complex-hyperbolic-4"])
def test_a_batch_of_curvatures_with_rows_each_equals_the_per_curvature_calls(name):
    # R of shape (k, n, n, n, n) and X of shape (k, P, n), as the battery's sphere-average takes H and C: each
    # R's metric and size are broadcast over its rows, and a hand-built R (size None) keeps the max(1, |x|) bound
    entry = builtin(name)
    n = entry.spec.n
    Rc = chern_curvature(metric_jets(entry.spec, sample_points(entry, 4, 29)))
    rng = np.random.default_rng(29)
    X = rng.standard_normal((4, 7, n)) + 1j * rng.standard_normal((4, 7, n))
    for framed in (Rc, to_unitary_frame(Rc)):
        for R in (framed, replace(framed, size=None)):
            H, C = holomorphic_sectional(R, X), mixed_curvature(R, PARAMS, X)
            assert H.shape == C.shape == (4, 7)
            assert np.array_equal(H, np.stack([holomorphic_sectional(R[k], X[k]) for k in range(4)])), R.frame
            assert np.array_equal(C, np.stack([mixed_curvature(R[k], PARAMS, X[k]) for k in range(4)])), R.frame


def test_per_point_objects_index_and_iterate():
    entry = builtin("hopf-3")
    pts = sample_points(entry, 4, 2)
    jets = metric_jets(entry.spec, pts)
    Rc = chern_curvature(jets)
    assert len(Rc) == 4 and [R.tensor.shape for R in Rc] == [(3, 3, 3, 3)] * 4
    one = jets[2]
    assert np.array_equal(one.point, pts[2]) and one.g.shape == (3, 3) and one.n == 3
    assert len(jets[1:3]) == 2
    with pytest.raises(TypeError, match="one point"):
        len(one)
    with pytest.raises(IndexError):
        jets[4]


def _indexed_by_replace(obj, k):
    """obj[k] as dataclasses.replace gives it: every array field taken at k, the other fields kept."""
    arrays = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return replace(obj, **{name: a[k] for name, a in arrays.items() if isinstance(a, np.ndarray)})


def test_per_point_indexing_equals_replace_on_every_per_point_class():
    entry = builtin("hopf-2")
    pts = sample_points(entry, 3, 5)
    jets = metric_jets(entry.spec, pts)
    Rc = chern_curvature(jets)
    b = ricci_bundle(Rc)
    batches = {
        "MetricJet": jets,
        "FactorJet": factor_jet(parse_expression("0.1*(z1*zbar1 + z2 + zbar2)", 2), pts),
        "ChernCurvature/coordinate": Rc,
        "ChernCurvature/unitary": to_unitary_frame(Rc),
        "RicciBundle": b,
        "Torsion": torsion(jets),
        "OneOneForm": OneOneForm(b.rho1, b.size, b.g),
    }
    for name, batch in batches.items():
        for k in (0, 2, -1, slice(1, 3), np.int64(1)):
            got, want = batch[k], _indexed_by_replace(batch, k)
            assert type(got) is type(want), name
            for f in fields(batch):
                a, w = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is type(w) and np.array_equal(a, w) and np.shape(a) == np.shape(w), (name, k, f.name)
        one = batch[1]
        with pytest.raises(TypeError, match="one point"):
            one[0]
        with pytest.raises(IndexError):
            batch[3]


def test_per_point_indexing_runs_the_class_checks(monkeypatch):
    # a point is built by the class's constructor, so __post_init__ checks it as it checks the batch
    b = ricci_bundle(chern_curvature(metric_jets(builtin("hopf-2").spec, sample_points(builtin("hopf-2"), 2, 5))))
    form, checked = OneOneForm(b.rho1, b.size, b.g), []
    post_init = OneOneForm.__post_init__
    monkeypatch.setattr(OneOneForm, "__post_init__", lambda self: checked.append(self.a.shape) or post_init(self))
    assert [p.a.shape for p in form] == [(2, 2)] * 2
    assert checked == [(2, 2)] * 2
