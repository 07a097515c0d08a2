"""The verification battery.

Every numbered criterion below re-derives a closed-form value or checks an
identity residual against a pinned tolerance, over deterministic point
samples of the built-in metrics.  The CLI `verify` command and the
acceptance test suite both run these checks.

Criteria (suite assignment in SUITES):

  hopf-closed-form       unitary-frame Hopf curvature, u, v, rho1 closed forms
  hopf-mixed-vanishing   C_{alpha,beta} == 0 on Hopf when n*alpha + beta = 0
  euclidean-sanity       everything vanishes on the flat metric
  space-forms            Kahler symmetry + pointwise-constant H on space forms
  conformal-law          e^{2F} transformation law vs direct recomputation
  surface-identities     W^-, Ricci combination, pointwise c_1^2 identity
  trace-identity         traced constancy identities on constant-C configurations
  sphere-average         Monte Carlo vs closed-form sphere average
  hopf-torsion           u - v = |eta|^2 = (n-1)^2 on Hopf
  fd-cross-check         symbolic vs finite-difference derivatives
  nonconstancy-witness   detector is not vacuous: H on Hopf has spread > 1e-2
  catalog-expected       every expected-value table is reproduced
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .catalog import builtin, names, sample_points
from .conformal import (
    conformal_curvature_via_formula,
    conformal_metric,
    surface_scalar_relation_residual,
)
from .dsl import parse_expression
from .geometry import (
    chern_curvature,
    hermitian_symmetry_residual,
    holomorphic_sectional,
    kahler_defect,
    kahler_like_defect,
    ricci_bundle,
    to_unitary_frame,
    torsion,
)
from .jets import _factor_jets, metric_jet, metric_jets
from .mixed import (
    MixedParams,
    constancy_tensor_residual,
    extremize,
    mixed_curvature,
    sphere_average_closed_form,
    sphere_average_monte_carlo_many,
    trace_identity_residual,
)
from .surfaces import c1_squared_pointwise_residual, ricci_combination_residual, weyl_minus

__all__ = ["VerificationOutcome", "run_checks", "run_criterion", "SUITES", "CRITERIA"]


@dataclass(frozen=True)
class VerificationOutcome:
    """One check: pass iff residual <= tolerance.

    For witness checks (a quantity must EXCEED a threshold) the residual is
    threshold - measured, so it is negative when satisfied with margin.
    point is the witness (max-residual) point, or None for aggregate checks.
    """

    check_id: str
    metric: str
    point: tuple | None
    residual: float
    tolerance: float
    passed: bool
    provenance: str


def _outcome(check_id, metric, residual, tolerance, provenance, point=None):
    residual = float(residual)
    return VerificationOutcome(
        check_id=check_id,
        metric=metric,
        point=tuple(point) if point is not None else None,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        provenance=provenance,
    )


def _max_over_points(values, points):
    idx = int(np.argmax(values))
    return values[idx], points[idx]


# ---------------------------------------------------------------------------
# criterion: hopf-closed-form


def _hopf_closed_tensor(z):
    n = len(z)
    eye = np.eye(n)
    r2 = np.vdot(z, z).real
    return np.einsum("ij,kl->ijkl", eye, eye) - np.einsum("i,j,kl->ijkl", np.conj(z), z, eye) / r2


def check_hopf_closed_form(points: int = 200, seed: int = 11):
    out = []
    prov = "closed-form"
    for n in (2, 3):
        entry = builtin(f"hopf-{n}")
        pts = sample_points(entry, points, seed + n)
        jets = metric_jets(entry.spec, pts)
        r_res, u_res, v_res, rho_res = [], [], [], []
        for jet in jets:
            Ru = to_unitary_frame(chern_curvature(jet), jet)
            closed = _hopf_closed_tensor(jet.point)
            r_res.append(np.max(np.abs(Ru.tensor - closed)))
            b = ricci_bundle(Ru, np.eye(n))
            u_res.append(abs(b.u - (n * n - n)))
            v_res.append(abs(b.v - (n - 1)))
            rho_closed = np.einsum("ijkk->ij", closed)
            rho_res.append(np.max(np.abs(b.rho1 - rho_closed)))
        for tag, res in (("curvature", r_res), ("u", u_res), ("v", v_res), ("rho1", rho_res)):
            worst, pt = _max_over_points(res, pts)
            out.append(_outcome(f"hopf-closed-form/{tag}/n{n}", f"hopf-{n}", worst, 1e-10, prov, pt))
    return out


# ---------------------------------------------------------------------------
# criterion: hopf-mixed-vanishing


def check_hopf_mixed_vanishing(pairs: int = 100, seed: int = 23):
    out = []
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        entry = builtin(f"hopf-{n}")
        params = MixedParams(1.0, -float(n))
        pts = sample_points(entry, pairs, seed + n)
        jets = metric_jets(entry.spec, pts)
        mix_res, ten_res = [], []
        for jet in jets:
            Rc = chern_curvature(jet)
            X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mix_res.append(abs(mixed_curvature(Rc, jet.g, params, X)))
            ten_res.append(constancy_tensor_residual(Rc, jet.g, params, 0.0))
        worst, pt = _max_over_points(mix_res, pts)
        out.append(
            _outcome(f"hopf-mixed-vanishing/value/n{n}", f"hopf-{n}", worst, 1e-10, "closed-form", pt)
        )
        worst, pt = _max_over_points(ten_res, pts)
        out.append(
            _outcome(f"hopf-mixed-vanishing/tensor/n{n}", f"hopf-{n}", worst, 1e-10, "closed-form", pt)
        )
    return out


# ---------------------------------------------------------------------------
# criterion: euclidean-sanity


def check_euclidean_sanity(points: int = 20, seed: int = 5):
    out = []
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        entry = builtin(f"euclidean-{n}")
        pts = sample_points(entry, points, seed + n)
        worst = 0.0
        for jet in metric_jets(entry.spec, pts):
            Rc = chern_curvature(jet)
            t = torsion(jet)
            X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            worst = max(
                worst,
                float(np.max(np.abs(Rc.tensor))),
                float(np.max(np.abs(t.T))),
                abs(t.eta_norm2),
                abs(mixed_curvature(Rc, jet.g, MixedParams(0.7, 1.3), X)),
            )
            if n == 2:
                w = weyl_minus(to_unitary_frame(Rc, jet))
                worst = max(worst, abs(w.w1), abs(w.w2), abs(w.w3))
        out.append(
            _outcome(f"euclidean-sanity/n{n}", f"euclidean-{n}", worst, 1e-12, "trivial")
        )
    return out


# ---------------------------------------------------------------------------
# criterion: space-forms


def check_space_forms(points: int = 50, seed: int = 31):
    out = []
    prov = "derived"
    for name in ("fubini-study-2", "fubini-study-3", "complex-hyperbolic-2", "complex-hyperbolic-3"):
        entry = builtin(name)
        n = entry.spec.n
        pts = sample_points(entry, points, seed)
        defect, like, ric_eq, uv, spread, mids, herm = [], [], [], [], [], [], []
        for jet in metric_jets(entry.spec, pts):
            Rc = chern_curvature(jet)
            Ru = to_unitary_frame(Rc, jet)
            herm.append(hermitian_symmetry_residual(Rc))
            defect.append(kahler_defect(jet))
            like.append(kahler_like_defect(Ru))
            b = ricci_bundle(Rc, jet.g)
            ric_eq.append(
                max(
                    float(np.max(np.abs(b.rho1 - b.rho2))),
                    float(np.max(np.abs(b.rho1 - b.rho3))),
                    float(np.max(np.abs(b.rho1 - b.rho4))),
                )
            )
            uv.append(abs(b.u - b.v))
            rep = extremize(Ru, np.eye(n), MixedParams(0.0, 1.0))
            spread.append(rep.spread)
            mids.append(0.5 * (rep.min_value + rep.max_value))
        checks = [
            ("kahler-defect", defect, 1e-10),
            ("kahler-like", like, 1e-9),
            ("ricci-equality", ric_eq, 1e-9),
            ("u-equals-v", uv, 1e-9),
            ("hsc-spread", spread, 1e-8),
            ("hermitian-symmetry", herm, 1e-10),
        ]
        for tag, res, tol in checks:
            worst, pt = _max_over_points(res, pts)
            out.append(_outcome(f"space-forms/{tag}", name, worst, tol, prov, pt))
        agree = float(np.max(np.abs(np.asarray(mids) - np.median(mids))))
        out.append(_outcome("space-forms/hsc-agreement", name, agree, 1e-8, prov))
    return out


# ---------------------------------------------------------------------------
# criterion: conformal-law

_LAW_METRICS = ("fubini-study-2", "hopf-2", "complex-hyperbolic-3")
_FACTORS = (
    "0.1*(z1*zbar1 - z2*zbar2)",
    "0.05*z1*zbar1",
    "0.1*(z1*zbar2 + z2*zbar1)",
)


def check_conformal_law(points: int = 10, seed: int = 41):
    out = []
    for name in _LAW_METRICS:
        entry = builtin(name)
        n = entry.spec.n
        pts = sample_points(entry, points, seed)
        jets = metric_jets(entry.spec, pts)
        curvatures = [chern_curvature(jet) for jet in jets]
        for ftext in _FACTORS:
            F = parse_expression(ftext, n)
            tilde = conformal_metric(entry.spec, F)
            res = []
            fjets = _factor_jets(F, pts, n)
            for jet, Rc, tjet, fj in zip(jets, curvatures, metric_jets(tilde, pts), fjets):
                pred = conformal_curvature_via_formula(Rc, jet, fj)
                direct = chern_curvature(tjet)
                scale = max(1.0, float(np.max(np.abs(direct.tensor))))
                res.append(float(np.max(np.abs(pred.tensor - direct.tensor))) / scale)
            worst, pt = _max_over_points(res, pts)
            out.append(
                _outcome(f"conformal-law/equivalence/{ftext}", name, worst, 1e-8, "derived", pt)
            )
    for name in ("fubini-study-2", "hopf-2"):
        entry = builtin(name)
        pts = sample_points(entry, points, seed + 1)
        for ftext in _FACTORS:
            r_u, r_v = surface_scalar_relation_residual(entry.spec, parse_expression(ftext, 2), pts)
            worst, pt = _max_over_points(np.maximum(r_u, r_v), pts)
            out.append(
                _outcome(f"conformal-law/scalar-relations/{ftext}", name, worst, 1e-8, "derived", pt)
            )
    return out


# ---------------------------------------------------------------------------
# criterion: surface-identities

_SURFACES = (
    "euclidean-2",
    "fubini-study-2",
    "complex-hyperbolic-2",
    "hopf-2",
    "adm-product-surface",
    "isosceles-hopf-surface",
)


def check_surface_identities(points: int = 50, seed: int = 53):
    out = []
    for name in _SURFACES:
        entry = builtin(name)
        pts = sample_points(entry, points, seed)
        comb, c1sq, weyl = [], [], []
        for jet in metric_jets(entry.spec, pts):
            Ru = to_unitary_frame(chern_curvature(jet), jet)
            b = ricci_bundle(Ru, np.eye(2))
            comb.append(ricci_combination_residual(b, np.eye(2)))
            c1sq.append(c1_squared_pointwise_residual(b, np.eye(2)))
            w = weyl_minus(Ru)
            weyl.append(max(abs(w.w1), abs(w.w2), abs(w.w3)))
        worst, pt = _max_over_points(comb, pts)
        out.append(_outcome("surface-identities/ricci-combination", name, worst, 1e-8, "derived", pt))
        worst, pt = _max_over_points(c1sq, pts)
        out.append(_outcome("surface-identities/c1-squared", name, worst, 1e-8, "derived", pt))
        if name in ("fubini-study-2", "hopf-2", "adm-product-surface"):
            worst, pt = _max_over_points(weyl, pts)
            out.append(_outcome("surface-identities/weyl-minus", name, worst, 1e-8, "derived", pt))
    return out


# ---------------------------------------------------------------------------
# criterion: trace-identity

_TRACE_CONFIGS = (
    ("fubini-study-2", (0.0, 1.0)),
    ("fubini-study-3", (0.0, 1.0)),
    ("complex-hyperbolic-2", (0.0, 1.0)),
    ("complex-hyperbolic-3", (0.0, 1.0)),
    ("hopf-2", (1.0, -2.0)),
    ("hopf-3", (1.0, -3.0)),
    ("euclidean-2", (0.7, 1.3)),
    ("euclidean-3", (1.0, 1.0)),
)


def check_trace_identity(points: int = 20, seed: int = 61):
    out = []
    for name, (a, b_) in _TRACE_CONFIGS:
        entry = builtin(name)
        n = entry.spec.n
        params = MixedParams(a, b_)
        pts = sample_points(entry, points, seed)
        res = []
        for jet in metric_jets(entry.spec, pts):
            Ru = to_unitary_frame(chern_curvature(jet), jet)
            bundle = ricci_bundle(Ru, np.eye(n))
            # the pointwise-constant value, from the scalar identity
            f = sphere_average_closed_form(bundle, params, n)
            res.append(trace_identity_residual(bundle, params, f, n))
        worst, pt = _max_over_points(res, pts)
        out.append(
            _outcome(f"trace-identity/alpha{a}-beta{b_}", name, worst, 1e-8, "closed-form", pt)
        )
    return out


# ---------------------------------------------------------------------------
# criterion: sphere-average


def _mc_pairs(seed: int = 71, count: int = 5):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a, b = rng.uniform(-2, 2, size=2)
        if abs(a) + abs(b) > 0.1:
            pairs.append(MixedParams(float(a), float(b)))
    return pairs


def check_sphere_average(samples: int = 100_000, seed: int = 71):
    out = []
    pairs = _mc_pairs(seed)
    for name in names():
        entry = builtin(name)
        n = entry.spec.n
        pt = sample_points(entry, 1, seed)[0]
        jet = metric_jet(entry.spec, pt)
        Ru = to_unitary_frame(chern_curvature(jet), jet)
        bundle = ricci_bundle(Ru, np.eye(n))
        stats = sphere_average_monte_carlo_many(Ru, np.eye(n), pairs, samples, seed)
        for params, (mean, stderr) in zip(pairs, stats):
            closed = sphere_average_closed_form(bundle, params, n)
            # 1e-12 cushion covers zero-variance configurations (FP noise only)
            out.append(
                _outcome(
                    f"sphere-average/a{params.alpha:+.2f}-b{params.beta:+.2f}",
                    name,
                    abs(mean - closed),
                    3 * stderr + 1e-12,
                    "derived",
                    pt,
                )
            )
    entry = builtin("hopf-2")
    pt = sample_points(entry, 1, seed + 1)[0]
    jet = metric_jet(entry.spec, pt)
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    params = MixedParams(0.0, 1.0)
    (mean, stderr), = sphere_average_monte_carlo_many(Ru, np.eye(2), [params], samples, seed)
    out.append(
        _outcome("sphere-average/hopf-half", "hopf-2", abs(mean - 0.5), 3 * stderr + 1e-12, "derived", pt)
    )
    return out


# ---------------------------------------------------------------------------
# criterion: hopf-torsion


def check_hopf_torsion(points: int = 50, seed: int = 83):
    out = []
    for n in (2, 3):
        entry = builtin(f"hopf-{n}")
        pts = sample_points(entry, points, seed + n)
        res = []
        for jet in metric_jets(entry.spec, pts):
            b = ricci_bundle(chern_curvature(jet), jet.g)
            t = torsion(jet)
            res.append(
                max(abs(b.u - b.v - t.eta_norm2), abs(t.eta_norm2 - (n - 1) ** 2))
            )
        worst, pt = _max_over_points(res, pts)
        out.append(
            _outcome(f"hopf-torsion/n{n}", f"hopf-{n}", worst, 1e-9, "derived", pt)
        )
    return out


# ---------------------------------------------------------------------------
# criterion: fd-cross-check


def check_fd(points: int = 20, seed: int = 97, h: float = 1e-5):
    out = []
    for name in names():
        entry = builtin(name)
        pts = sample_points(entry, points, seed)
        worst = 0.0
        for i in range(entry.spec.n):
            for j in range(entry.spec.n):
                e = entry.spec.entries[i][j]
                if e != ex.ZERO:
                    worst = max(worst, ex.fd_residual(e, pts, h))
        out.append(_outcome("fd-cross-check/entries", name, worst, 1e-6, "derived"))
    worst = 0.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, size=(points, 6)).view(complex)
    for ftext in _FACTORS:
        worst = max(worst, ex.fd_residual(parse_expression(ftext, 3), pts, h))
    out.append(_outcome("fd-cross-check/conformal-factors", "(factors)", worst, 1e-6, "derived"))
    return out


# ---------------------------------------------------------------------------
# criterion: nonconstancy-witness


def check_nonconstancy_witness(seed: int = 99):
    entry = builtin("hopf-2")
    pt = sample_points(entry, 1, seed)[0]
    jet = metric_jet(entry.spec, pt)
    Ru = to_unitary_frame(chern_curvature(jet), jet)
    rep = extremize(Ru, np.eye(2), MixedParams(0.0, 1.0))
    # witness check: spread must EXCEED 1e-2, so the residual is the shortfall
    return [
        _outcome(
            "nonconstancy-witness/hopf-hsc-spread",
            "hopf-2",
            1e-2 - rep.spread,
            0.0,
            "derived",
            pt,
        )
    ]


# ---------------------------------------------------------------------------
# criterion: catalog-expected


def check_catalog_expected(points: int = 50, seed: int = 7):
    out = []
    for name in names():
        entry = builtin(name)
        n = entry.spec.n
        pts = sample_points(entry, points, seed)
        worst = {key: 0.0 for key in entry.expected}
        herm = 0.0
        for jet in metric_jets(entry.spec, pts):
            Rc = chern_curvature(jet)
            herm = max(herm, hermitian_symmetry_residual(Rc))
            b = ricci_bundle(Rc, jet.g)
            t = torsion(jet)
            exp_ = entry.expected
            if "u" in exp_:
                worst["u"] = max(worst["u"], abs(b.u - exp_["u"].value))
            if "v" in exp_:
                worst["v"] = max(worst["v"], abs(b.v - exp_["v"].value))
            if "eta_norm2" in exp_:
                worst["eta_norm2"] = max(worst["eta_norm2"], abs(t.eta_norm2 - exp_["eta_norm2"].value))
            if "hsc" in exp_:
                X = jet.point + np.linspace(1.0, 2.0, n)  # any nonzero direction
                worst["hsc"] = max(
                    worst["hsc"], abs(holomorphic_sectional(Rc, jet.g, X) - exp_["hsc"].value)
                )
            if "hsc_axis1" in exp_:
                worst["hsc_axis1"] = max(
                    worst["hsc_axis1"],
                    abs(holomorphic_sectional(Rc, jet.g, [1, 0]) - exp_["hsc_axis1"].value),
                )
                worst["hsc_axis2"] = max(
                    worst["hsc_axis2"],
                    abs(holomorphic_sectional(Rc, jet.g, [0, 1]) - exp_["hsc_axis2"].value),
                )
            if "rho1_unitary" in exp_:
                Ru = to_unitary_frame(Rc, jet)
                bu = ricci_bundle(Ru, np.eye(n))
                worst["rho1_unitary"] = max(
                    worst["rho1_unitary"],
                    float(np.max(np.abs(bu.rho1 - np.diag(exp_["rho1_unitary"].value)))),
                )
        for key, res in worst.items():
            tol = 1e-8 if name.startswith(("fubini", "complex")) else 1e-9
            out.append(
                _outcome(f"catalog-expected/{key}", name, res, tol, entry.expected[key].provenance)
            )
        out.append(_outcome("catalog-expected/hermitian-symmetry", name, herm, 1e-10, "trivial"))
    return out


# ---------------------------------------------------------------------------
# registry

CRITERIA = {
    "hopf-closed-form": check_hopf_closed_form,
    "hopf-mixed-vanishing": check_hopf_mixed_vanishing,
    "euclidean-sanity": check_euclidean_sanity,
    "space-forms": check_space_forms,
    "conformal-law": check_conformal_law,
    "surface-identities": check_surface_identities,
    "trace-identity": check_trace_identity,
    "sphere-average": check_sphere_average,
    "hopf-torsion": check_hopf_torsion,
    "fd-cross-check": check_fd,
    "nonconstancy-witness": check_nonconstancy_witness,
    "catalog-expected": check_catalog_expected,
}

SUITES = {
    "core": ["hopf-closed-form", "euclidean-sanity", "hopf-torsion", "fd-cross-check"],
    "mixed": ["hopf-mixed-vanishing", "trace-identity", "sphere-average", "nonconstancy-witness"],
    "conformal": ["conformal-law"],
    "surface": ["surface-identities"],
    "catalog": ["space-forms", "catalog-expected"],
}
SUITES["all"] = [name for suite in ("core", "mixed", "conformal", "surface", "catalog") for name in SUITES[suite]]


def run_criterion(name: str):
    """All outcomes of one named criterion."""
    return CRITERIA[name]()


def run_checks(suite: str = "all", tol_override: float | None = None):
    """Run a suite; tol_override replaces every tolerance (forcing-failure knob)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {sorted(SUITES)}")
    outcomes = []
    for name in SUITES[suite]:
        outcomes.extend(run_criterion(name))
    if tol_override is not None:
        outcomes = [
            replace(o, tolerance=tol_override, passed=o.residual <= tol_override)
            for o in outcomes
        ]
    return outcomes
