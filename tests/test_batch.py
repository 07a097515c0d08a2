"""Every pointwise kernel on a batch equals stacking its one-point calls."""

from dataclasses import fields, replace

import numpy as np
import pytest

from chernkit.catalog import builtin, names, sample_points
from chernkit.conformal import chern_laplacian, conformal_curvature_via_formula
from chernkit.dsl import parse_expression
from chernkit.geometry import (
    chern_curvature,
    hermitian_symmetry_residual,
    holomorphic_sectional,
    kahler_defect,
    kahler_like_defect,
    ricci_bundle,
    to_unitary_frame,
    torsion,
)
from chernkit.jets import factor_jet, metric_jets
from chernkit.mixed import MixedParams, constancy_tensor_residual
from chernkit.surfaces import OneOneForm, weyl_minus

REL_TOL = 1e-13
# kernels whose batch is its stacked one-point calls bit for bit, as the README says
EXACT = ("chern_curvature", "to_unitary_frame")


def _unitary(jet):
    return to_unitary_frame(chern_curvature(jet), jet)


def _ricci(jet):
    b = ricci_bundle(chern_curvature(jet))
    return b.rho1, b.rho2, b.rho3, b.rho4, b.u, b.v


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
    "holomorphic_sectional": lambda jet, fj, X: (holomorphic_sectional(chern_curvature(jet), X),),
    "constancy_tensor_residual": lambda jet, fj, X: (
        constancy_tensor_residual(chern_curvature(jet), MixedParams(0.7, -1.3), 0.4),
    ),
    "conformal_curvature_via_formula": lambda jet, fj, X: (
        conformal_curvature_via_formula(chern_curvature(jet), fj).tensor,
    ),
    "chern_laplacian": lambda jet, fj, X: (chern_laplacian(jet, fj),),
    "weyl_minus": lambda jet, fj, X: _weyl(jet),
}


@pytest.mark.parametrize("name", names())
def test_batched_kernels_equal_stacked_point_calls(name):
    entry = builtin(name)
    n = entry.spec.n
    pts = sample_points(entry, 6, 19)
    jets = metric_jets(entry.spec, pts)
    fj = factor_jet(parse_expression("0.1*(z1*zbar1 + z1 + zbar1)", n), pts)
    X = pts + np.linspace(1.0, 2.0, n)
    assert len(jets) == len(fj) == len(pts)
    for kernel, f in KERNELS.items():
        if kernel == "weyl_minus" and n != 2:
            continue
        batch = f(jets, fj, X)
        points = [f(jets[k], fj[k], X[k]) for k in range(len(pts))]
        for part, got in enumerate(batch):
            want = np.stack([p[part] for p in points])
            assert np.shape(got) == want.shape, (kernel, part)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= REL_TOL * scale, (kernel, part)
            assert kernel not in EXACT or np.array_equal(got, want), (kernel, part)


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
        "ChernCurvature/unitary": to_unitary_frame(Rc, jets),
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
