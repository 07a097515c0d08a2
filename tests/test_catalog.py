"""Catalog entries: expected values, domains, sampler determinism."""

import numpy as np
import pytest

from chernkit.catalog import builtin, names, sample_points
from chernkit.domains import Ball, Polydisc
from chernkit.geometry import (
    chern_curvature,
    holomorphic_sectional,
    kahler_defect,
    ricci_bundle,
    torsion,
)
from chernkit.jets import metric_jets


def test_names_and_unknown():
    got = names()
    assert "hopf-2" in got and "adm-product-surface" in got
    assert len(got) == 18
    with pytest.raises(ValueError, match="unknown catalog metric"):
        builtin("klein-bottle")


def test_every_entry_parses_and_is_positive_definite():
    for name in names():
        entry = builtin(name)
        pts = sample_points(entry, 10, 0)
        jets = metric_jets(entry.spec, pts)  # raises if not Hermitian PD
        assert len(jets) == 10


def test_expected_scalars_reproduced():
    for name in names():
        entry = builtin(name)
        n = entry.spec.n
        pts = sample_points(entry, 10, 1)
        tol = 1e-8 if name.startswith(("fubini", "complex")) else 1e-9
        for jet in metric_jets(entry.spec, pts):
            Rc = chern_curvature(jet)
            b = ricci_bundle(Rc)
            exp_ = entry.expected
            assert abs(b.u - exp_["u"].value) < tol, name
            assert abs(b.v - exp_["v"].value) < tol, name
            assert abs(torsion(jet).eta_norm2 - exp_["eta_norm2"].value) < tol, name
            if "hsc" in exp_:
                X = np.linspace(1, 2, n) + 1j * jet.point
                assert abs(holomorphic_sectional(Rc, X) - exp_["hsc"].value) < tol, name


def test_expected_values_carry_provenance():
    for name in names():
        for key, ev in builtin(name).expected.items():
            assert isinstance(ev.provenance, str) and ev.provenance, (name, key)


def test_kahler_classification():
    for name in names():
        entry = builtin(name)
        pts = sample_points(entry, 10, 2)
        defects = [kahler_defect(j) for j in metric_jets(entry.spec, pts)]
        if entry.kahler:
            assert max(defects) < 1e-10, name
    # non-Kahler witnesses: hopf defect near |z| = 1 exceeds 0.1
    for name in ("hopf-2", "hopf-3", "isosceles-hopf-surface"):
        entry = builtin(name)
        n = entry.spec.n
        rng = np.random.default_rng(3)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for r in (0.9, 1.0, 1.1):
            z = r * w / np.linalg.norm(w)
            jet = metric_jets(entry.spec, z[None, :])[0]
            assert kahler_defect(jet) > 0.1, name


def test_domain_predicates_on_samples():
    hopf = builtin("hopf-2")
    pts = sample_points(hopf, 200, 4)
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r >= 0.5) & (r <= 2.0))

    ch = builtin("complex-hyperbolic-2")
    pts = sample_points(ch, 200, 5)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.8)

    adm = builtin("adm-product-surface")
    pts = sample_points(adm, 200, 6)
    assert np.all(np.abs(pts[:, 0]) <= 0.6)
    assert np.all(np.abs(pts[:, 1]) <= 2.0)
    assert np.max(np.abs(pts[:, 1])) > 0.7  # the second factor really is bigger
    with pytest.raises(ValueError, match="product domain has 2 factors but the metric has n=3"):
        adm.spec.domain.sample(3, 1, np.random.default_rng(6))


@pytest.mark.parametrize(
    "source, outside",
    [
        ("fubini-study-2", [[2.001, 0]]),  # ball 2
        ("complex-hyperbolic-2", [[0.5, 0.63]]),  # ball 0.8
        ("hopf-2", [[2.001, 0], [0.3, 0.39]]),  # annulus 0.5 2
        ("adm-product-surface", [[0.601, 0], [0, 2.001]]),  # product ball 0.6; ball 2
        (Polydisc(0.7), [[0.701, 0], [0, 0.7j + 0.001]]),  # no catalog metric has one
    ],
    ids=["ball", "small-ball", "annulus", "product", "polydisc"],
)
def test_domain_contains_takes_a_point_or_a_batch(source, outside):
    domain = builtin(source).spec.domain if isinstance(source, str) else source
    pts = domain.sample(2, 200, np.random.default_rng(8))
    inside = domain.contains(pts)
    assert inside.shape == (200,) and inside.dtype == bool and np.all(inside)
    one_by_one = [domain.contains(p) for p in pts]
    assert all(isinstance(x, np.bool_) for x in one_by_one) and np.array_equal(one_by_one, inside)
    outside = np.asarray(outside, dtype=complex)
    assert not np.any(domain.contains(outside))
    assert not any(domain.contains(p) for p in outside)


def test_sampling_gives_up_on_a_domain_too_thin_for_its_cube():
    # the unit ball fills 2.5e-8 of its cube in C^10: rejection would need ~4e7 draws per point
    with pytest.raises(ValueError, match=r"Ball\(radius=1.0\) in n=10: 0 of 2 .* --point"):
        Ball(1.0).sample(10, 2, np.random.default_rng(0))


def test_sampler_determinism():
    entry = builtin("euclidean-2")
    a = sample_points(entry, 3, 7)
    b = sample_points(entry, 3, 7)
    assert np.array_equal(a, b)
    c = sample_points(entry, 3, 8)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        sample_points(entry, 0, 7)


def test_isosceles_matches_hopf2_pointwise():
    iso = builtin("isosceles-hopf-surface")
    hopf = builtin("hopf-2")
    pts = sample_points(iso, 5, 9)
    for ji, jh in zip(metric_jets(iso.spec, pts), metric_jets(hopf.spec, pts)):
        assert np.array_equal(ji.g, jh.g)
        assert np.array_equal(ji.ddbar_g, jh.ddbar_g)
    assert "2*alpha + beta" in iso.notes


def test_builtin_is_cached():
    assert builtin("hopf-2") is builtin("hopf-2")
