"""Acceptance gate: every verification criterion at its pinned tolerance.

Each test runs one criterion of the battery and prints a pass/fail line;
the whole module is the machine-checkable acceptance suite (also reachable
as `chernkit verify`).
"""

import sys
from collections import Counter
from functools import lru_cache

import battery_reference
import numpy as np
import pytest

from chernkit import checks, jets
from chernkit.catalog import builtin, names
from chernkit.checks import CRITERIA, SAMPLES, SUITES, _average_pairs, _directions, _unitary, run_checks
from chernkit.dsl import print_metric
from chernkit.geometry import ricci_bundle
from chernkit.mixed import sphere_average_closed_form


@lru_cache(maxsize=None)
def _cached_criterion(name):
    return tuple(CRITERIA[name]())


def _assert_criterion(name, label):
    outcomes = _cached_criterion(name)
    assert outcomes, f"{name} produced no checks"
    failed = [o for o in outcomes if not o.passed]
    worst = max(o.residual - o.tolerance for o in outcomes)
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {label}: {len(outcomes)} checks, worst margin {worst:+.3e}")
    for o in failed:
        print(f"    FAIL {o.check_id} [{o.metric}] residual={o.residual:.3e} tol={o.tolerance:.3e}")
    assert not failed, f"{len(failed)} of {len(outcomes)} checks failed in {name}"
    return outcomes


def test_criterion_01_hopf_closed_form():
    # unitary-frame curvature, u = n^2 - n, v = n - 1, first Ricci; 200 points, 1e-10
    outs = _assert_criterion("hopf-closed-form", "criterion 1: hopf closed forms")
    assert all(o.tolerance == 1e-10 for o in outs)
    assert len({o.metric for o in outs}) == 2  # n = 2 and n = 3


def test_criterion_02_hopf_mixed_vanishing():
    # |C_{alpha,beta}| < 1e-10 for 100 point/direction pairs when n*alpha + beta = 0
    outs = _assert_criterion("hopf-mixed-vanishing", "criterion 2: hopf mixed-curvature vanishing")
    assert all(o.tolerance == 1e-10 for o in outs)


def test_directions_draw_each_row_real_part_then_imaginary_part():
    # one (count, 2, n) draw is the stream of a per-row loop, so the checked points stay the same
    ref_rng, rng = np.random.default_rng(23), np.random.default_rng(23)
    ref = np.array([ref_rng.standard_normal(3) + 1j * ref_rng.standard_normal(3) for _ in range(100)])
    assert _directions(rng, 100, 3).tobytes() == ref.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()  # and leaves the generator where the loop did


def test_criterion_03_euclidean_sanity():
    outs = _assert_criterion("euclidean-sanity", "criterion 3: euclidean sanity")
    assert all(o.tolerance == 1e-12 for o in outs)


def test_criterion_04_space_forms():
    outs = _assert_criterion("space-forms", "criterion 4: space forms")
    metrics = {o.metric for o in outs}
    assert metrics == {
        "fubini-study-2", "fubini-study-3", "complex-hyperbolic-2", "complex-hyperbolic-3",
    }
    spreads = [o for o in outs if o.check_id == "space-forms/hsc-spread"]
    assert spreads and all(o.tolerance == 1e-8 for o in spreads)


def test_criterion_05_conformal_law():
    outs = _assert_criterion("conformal-law", "criterion 5: conformal transformation law")
    kinds = {o.check_id.split("/")[1] for o in outs}
    assert kinds == {"equivalence", "scalar-relations"}
    # 3 metrics x 3 factors for the tensor law
    assert sum(k.startswith("conformal-law/equivalence") for k in (o.check_id for o in outs)) == 9


def test_criterion_06_surface_identities():
    outs = _assert_criterion("surface-identities", "criterion 6: surface identities")
    weyl = {o.metric for o in outs if o.check_id.endswith("weyl-minus")}
    assert weyl == {"fubini-study-2", "hopf-2", "adm-product-surface"}


def test_criterion_07_trace_identity():
    outs = _assert_criterion("trace-identity", "criterion 7: traced constancy identities")
    assert len(outs) == 8


def test_criterion_08_sphere_average():
    outs = _assert_criterion("sphere-average", "criterion 8: sphere-average identity")
    # every catalog metric x 5 pairs, plus the hopf-2 value-0.5 case
    assert len(outs) == 18 * 5 + 1
    assert outs[-1].check_id == "sphere-average/hopf-half" and outs[-1].tolerance == 1e-12
    # the cubature is exact: each tolerance is round-off of the closed form, 1e-12 max(1, |closed|)
    pairs = _average_pairs()
    for k, o in enumerate(outs[:-1]):
        _, Ru = _unitary(o.metric, 1, 71)
        closed = sphere_average_closed_form(ricci_bundle(Ru[0]), pairs[k % 5])
        assert o.tolerance == 1e-12 * max(1.0, abs(closed)), o


@pytest.mark.parametrize("name", ["sphere-average", "trace-identity", "conformal-law"])
def test_grouped_criteria_give_the_per_metric_outcomes(name):
    # these criteria run their kernels once per dimension, or conformal-law its factor and e^{2F} g jets once per
    # metric, over the concatenated samples of each group; one pass per sample gives the same outcomes, residuals
    # and witness points to the last bit
    reference = getattr(battery_reference, name.replace("-", "_"))()
    assert [repr(o) for o in _cached_criterion(name)] == [repr(o) for o in reference]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_run_gives_the_outcomes_of_its_criteria_run_on_their_own(suite):
    # a run evaluates each catalog metric once, on the points of every sample its suite plans for it, and each
    # criterion takes its rows; a point's jets do not depend on its batch, so every outcome is bit for bit its own
    want = [repr(o) for name in SUITES[suite] for o in _cached_criterion(name)]
    assert [repr(o) for o in run_checks(suite)] == want
    assert checks._plan.get() is None  # nothing is kept for the next run


def test_a_run_raises_for_a_sample_it_does_not_plan():
    # SAMPLES is the one table of samples: inside a run, a take the run did not plan is an error, not a call
    token = checks._plan.set(checks._Plan([]))
    try:
        with pytest.raises(KeyError) as err:
            checks.check_hopf_torsion()
    finally:
        checks._plan.reset(token)
    assert err.value.args == (("hopf-2", 50, 85),)


def _counted_jets(monkeypatch) -> list:
    """(metric text, point bytes, number of points) of each metric_jets call from now on, wherever chernkit
    refers to the function."""
    calls, original = [], jets.metric_jets

    def counted(spec, points):
        out = original(spec, points)
        calls.append((print_metric(spec), np.asarray(points, dtype=complex).tobytes(), len(out)))
        return out

    for name, module in list(sys.modules.items()):
        if name == "chernkit" or name.startswith("chernkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_the_battery_evaluates_each_catalog_metric_once(monkeypatch):
    calls = _counted_jets(monkeypatch)
    run_checks("all")
    # one call for each of the 18 catalog metrics; conformal-law makes the other 9, one per conformal metric
    # e^{2F} g, over the points of all its base metric's samples.  The points are those of every criterion's own
    # calls.
    assert (len(calls), sum(m for _, _, m in calls)) == (27, 2520)
    first = list(calls)
    calls.clear()
    run_checks("all")
    assert calls == first  # a second run evaluates what the first did


def test_the_battery_evaluates_no_metric_twice_on_the_same_points(monkeypatch):
    calls, factors, factor_jet = _counted_jets(monkeypatch), [], checks.factor_jet
    monkeypatch.setattr(checks, "factor_jet", lambda F, p: factors.append(len(p)) or factor_jet(F, p))
    run_checks("all")
    # a call is keyed by its metric's text and its points; list (number of points, calls) of each repeated one
    assert [(m, k) for (_, _, m), k in Counter(calls).items() if k > 1] == []
    # conformal-law: one factor jet and one e^{2F} g jet for each of its 3 metrics and 3 factors, over the 20 points
    # of fubini-study-2's and of hopf-2's two samples and complex-hyperbolic-3's 10
    catalog = {print_metric(builtin(name).spec) for name in names()}
    conformal = [m for text, _, m in calls if text not in catalog]
    assert conformal == factors == [20] * 6 + [10] * 3


def test_a_suite_evaluates_only_the_samples_its_criteria_take(monkeypatch):
    calls = _counted_jets(monkeypatch)
    run_checks("core")
    planned = [sample for name in SUITES["core"] for sample in SAMPLES.get(name, ())]
    assert len(calls) == len({name for name, _, _ in planned}) == 4
    assert sum(m for _, _, m in calls) == sum(count for _, count, _ in planned) == 540


def test_criterion_09_hopf_torsion():
    outs = _assert_criterion("hopf-torsion", "criterion 9: hopf torsion identity")
    assert all(o.tolerance == 1e-9 for o in outs)


def test_criterion_10_fd_cross_check():
    outs = _assert_criterion("fd-cross-check", "criterion 10: symbolic vs finite differences")
    assert all(o.tolerance == 1e-6 for o in outs)
    assert len(outs) == 18 + 1  # every metric, plus the conformal factors


def test_criterion_11_nonconstancy_witness():
    outs = _assert_criterion("nonconstancy-witness", "criterion 11: non-constancy witness")
    (o,) = outs
    # residual = 1e-2 - spread must be well below zero
    assert o.residual < -0.9


def test_catalog_expected_values():
    _assert_criterion("catalog-expected", "catalog: expected-value tables")


def test_battery_is_complete():
    assert set(CRITERIA) == {
        "hopf-closed-form",
        "hopf-mixed-vanishing",
        "euclidean-sanity",
        "space-forms",
        "conformal-law",
        "surface-identities",
        "trace-identity",
        "sphere-average",
        "hopf-torsion",
        "fd-cross-check",
        "nonconstancy-witness",
        "catalog-expected",
    }
    total = sum(len(_cached_criterion(name)) for name in CRITERIA)
    print(f"verification battery: {total} checks")
    assert total >= 60
