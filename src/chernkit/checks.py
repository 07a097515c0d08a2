"""The verification battery.

Every criterion below re-derives a closed-form value or checks an identity
residual against a pinned tolerance, over deterministic point samples of the
built-in metrics.  Each criterion is a fixed recipe: it takes no arguments,
and its metrics, sample counts, seeds and tolerances are written where it
uses them, so every run checks the same points.  The CLI `verify` command
and the acceptance test suite both run these checks.

Most criteria run each kernel once per metric, over all its points.  The two
that take only a few points per metric, sphere-average (one) and
trace-identity (20), group their metrics by dimension instead
(_by_dimension): each metric's jets are its own run, and chern_curvature,
to_unitary_frame and ricci_bundle run once over the concatenated jets of
each n; sphere-average then makes one mixed_curvature call per dimension and
pair, on the batch of R with the cubature rows of each.  The outcomes are
bit-identical to one kernel pass per metric.

Criteria (suite assignment in SUITES):

  hopf-closed-form       unitary-frame Hopf curvature, u, v, rho1 closed forms
  hopf-mixed-vanishing   C_{alpha,beta} == 0 on Hopf when n*alpha + beta = 0
  euclidean-sanity       everything vanishes on the flat metric
  space-forms            Kahler symmetry + pointwise-constant H on space forms
  conformal-law          e^{2F} transformation law vs direct recomputation
  surface-identities     W^-, Ricci combination, pointwise c_1^2 identity
  trace-identity         traced constancy identities on constant-C configurations
  sphere-average         exact cubature vs closed-form sphere average
  hopf-torsion           u - v = |eta|^2 = (n-1)^2 on Hopf
  fd-cross-check         jet-run vs finite-difference derivatives
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
from .jets import MetricJet, _field_names, _max_abs, factor_jet, metric_jets
from .mixed import (
    MixedParams,
    _extrema,
    _sphere_design,
    constancy_tensor_residual,
    extremize,
    mixed_curvature,
    sphere_average_closed_form,
    trace_identity_residual,
)
from .surfaces import c1_squared_pointwise_residual, ricci_combination_residual, weyl_minus

__all__ = ["VerificationOutcome", "run_checks", "SUITES", "CRITERIA"]


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
    residual, tolerance, point = float(residual), float(tolerance), tuple(point) if point is not None else None
    return VerificationOutcome(check_id, metric, point, residual, tolerance, residual <= tolerance, provenance)


def _worst(check_id, metric, residuals, tolerance, provenance, points):
    """The outcome of the largest of residuals (one per point), witnessed at its point."""
    k = int(np.argmax(residuals))
    return _outcome(check_id, metric, residuals[k], tolerance, provenance, points[k])


def _directions(rng, count: int, n: int) -> np.ndarray:
    """count random directions in C^n, each drawn as its real part, then its imaginary part."""
    W = rng.standard_normal((count, 2, n))
    return W[:, 0] + 1j * W[:, 1]


def _sampled(name: str, count: int, seed: int):
    """(points, jets, coordinate-frame curvature) of a catalog metric at seeded points."""
    entry = builtin(name)
    pts = sample_points(entry, count, seed)
    jets = metric_jets(entry.spec, pts)
    return pts, jets, chern_curvature(jets)


def _unitary(name: str, count: int, seed: int):
    """(points, unitary-frame curvature) of a catalog metric at seeded points."""
    pts, _, Rc = _sampled(name, count, seed)
    return pts, to_unitary_frame(Rc)


def _by_dimension(samples):
    """Catalog metrics at seeded points, grouped by dimension: (members, Ru, bundle) for each n.

    samples holds (name, count, seed) triples.  Each metric's jets are one run of its own
    program; the jets of one n are concatenated, so chern_curvature, to_unitary_frame and
    ricci_bundle run once per dimension, not once per metric.  members holds (i, points, rows)
    for each sample i of that n, in order, rows being its slice of the unitary-frame curvature Ru
    and of its Ricci bundle.  Slices of a unitary frame, whose metric is I, are bit-identical to
    the metric's own kernel calls.
    """
    groups = {}
    for i, (name, count, seed) in enumerate(samples):
        entry = builtin(name)
        pts = sample_points(entry, count, seed)
        groups.setdefault(entry.spec.n, []).append((i, pts, metric_jets(entry.spec, pts)))
    for group in groups.values():
        jets = MetricJet(*(np.concatenate([getattr(j, f) for _, _, j in group]) for f in _field_names(MetricJet)))
        Ru = to_unitary_frame(chern_curvature(jets))
        ends = np.cumsum([len(pts) for _, pts, _ in group]).tolist()
        members = [(i, pts, slice(end - len(pts), end)) for (i, pts, _), end in zip(group, ends)]
        yield members, Ru, ricci_bundle(Ru)


# ---------------------------------------------------------------------------
# criterion: hopf-closed-form


def _hopf_closed_tensor(z):
    eye = np.eye(z.shape[-1])
    r2 = np.sum(np.abs(z) ** 2, axis=-1)[..., None, None, None, None]
    return np.einsum("ij,kl->ijkl", eye, eye) - np.einsum("...i,...j,kl->...ijkl", np.conj(z), z, eye) / r2


def check_hopf_closed_form():
    out = []
    for n in (2, 3):
        pts, Ru = _unitary(f"hopf-{n}", 200, 11 + n)
        closed, expected = _hopf_closed_tensor(pts), builtin(f"hopf-{n}").expected
        b = ricci_bundle(Ru)
        for tag, res in (
            ("curvature", _max_abs(Ru.tensor - closed, 4)),
            ("u", np.abs(b.u - expected["u"].value)),
            ("v", np.abs(b.v - expected["v"].value)),
            ("rho1", _max_abs(b.rho1 - np.einsum("...ijkk->...ij", closed), 2)),
        ):
            out.append(_worst(f"hopf-closed-form/{tag}/n{n}", f"hopf-{n}", res, 1e-10, "closed-form", pts))
    return out


# ---------------------------------------------------------------------------
# criterion: hopf-mixed-vanishing


def check_hopf_mixed_vanishing():
    out = []
    rng = np.random.default_rng(23)
    for n in (2, 3):
        params = MixedParams(1.0, -float(n))
        pts, _, Rc = _sampled(f"hopf-{n}", 100, 23 + n)
        X = _directions(rng, len(pts), n)
        for tag, res in (
            ("value", np.abs(mixed_curvature(Rc, params, X))),
            ("tensor", constancy_tensor_residual(Rc, params, 0.0)),
        ):
            out.append(_worst(f"hopf-mixed-vanishing/{tag}/n{n}", f"hopf-{n}", res, 1e-10, "closed-form", pts))
    return out


# ---------------------------------------------------------------------------
# criterion: euclidean-sanity


def check_euclidean_sanity():
    out = []
    rng = np.random.default_rng(5)
    for n in (2, 3):
        pts, jets, Rc = _sampled(f"euclidean-{n}", 20, 5 + n)
        Ru = to_unitary_frame(Rc)
        t = torsion(jets)
        X = _directions(rng, len(pts), n)
        parts = [Rc.tensor, t.T, t.eta_norm2, mixed_curvature(Rc, MixedParams(0.7, 1.3), X)]
        if n == 2:
            w = weyl_minus(Ru)
            parts += [w.w1, w.w2, w.w3]
        worst = max(np.max(np.abs(x)) for x in parts)
        out.append(_outcome(f"euclidean-sanity/n{n}", f"euclidean-{n}", worst, 1e-12, "trivial"))
    return out


# ---------------------------------------------------------------------------
# criterion: space-forms


def check_space_forms():
    out = []
    for name in ("fubini-study-2", "fubini-study-3", "complex-hyperbolic-2", "complex-hyperbolic-3"):
        pts, jets, Rc = _sampled(name, 50, 31)
        Ru = to_unitary_frame(Rc)
        b = ricci_bundle(Rc)
        reps = _extrema(Ru, MixedParams(0.0, 1.0))
        for tag, res, tol in (
            ("kahler-defect", kahler_defect(jets), 1e-10),
            ("kahler-like", kahler_like_defect(Ru), 1e-9),
            ("ricci-equality", _max_abs(np.stack([b.rho1 - b.rho2, b.rho1 - b.rho3, b.rho1 - b.rho4], 1), 3), 1e-9),
            ("u-equals-v", np.abs(b.u - b.v), 1e-9),
            ("hsc-spread", [rep.spread for rep in reps], 1e-8),
            ("hermitian-symmetry", hermitian_symmetry_residual(Rc), 1e-10),
        ):
            out.append(_worst(f"space-forms/{tag}", name, res, tol, "derived", pts))
        mids = np.array([0.5 * (rep.min_value + rep.max_value) for rep in reps])
        agree = np.max(np.abs(mids - np.median(mids)))
        out.append(_outcome("space-forms/hsc-agreement", name, agree, 1e-8, "derived"))
    return out


# ---------------------------------------------------------------------------
# criterion: conformal-law

_LAW_METRICS = ("fubini-study-2", "hopf-2", "complex-hyperbolic-3")
_FACTORS = (
    "0.1*(z1*zbar1 - z2*zbar2)",
    "0.05*z1*zbar1",
    "0.1*(z1*zbar2 + z2*zbar1)",
)


def check_conformal_law():
    out = []
    for name in _LAW_METRICS:
        pts, _, Rc = _sampled(name, 10, 41)
        for ftext in _FACTORS:
            F = parse_expression(ftext, Rc.n)
            pred = conformal_curvature_via_formula(Rc, factor_jet(F, pts))
            direct = chern_curvature(metric_jets(conformal_metric(builtin(name).spec, F), pts)).tensor
            res = _max_abs(pred.tensor - direct, 4) / np.maximum(1.0, _max_abs(direct, 4))
            out.append(_worst(f"conformal-law/equivalence/{ftext}", name, res, 1e-8, "derived", pts))
    for name in ("fubini-study-2", "hopf-2"):
        entry = builtin(name)
        pts = sample_points(entry, 10, 42)
        for ftext in _FACTORS:
            res = np.maximum(*surface_scalar_relation_residual(entry.spec, parse_expression(ftext, 2), pts))
            out.append(_worst(f"conformal-law/scalar-relations/{ftext}", name, res, 1e-8, "derived", pts))
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


def check_surface_identities():
    out = []
    for name in _SURFACES:
        pts, Ru = _unitary(name, 50, 53)
        b = ricci_bundle(Ru)
        checks = [
            ("ricci-combination", ricci_combination_residual(b)),
            ("c1-squared", c1_squared_pointwise_residual(b)),
        ]
        if name in ("fubini-study-2", "hopf-2", "adm-product-surface"):
            w = weyl_minus(Ru)
            checks.append(("weyl-minus", np.maximum.reduce([np.abs(w.w1), np.abs(w.w2), np.abs(w.w3)])))
        out += [_worst(f"surface-identities/{tag}", name, res, 1e-8, "derived", pts) for tag, res in checks]
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


def check_trace_identity():
    out = [None] * len(_TRACE_CONFIGS)
    for members, _, bundle in _by_dimension([(name, 20, 61) for name, _ in _TRACE_CONFIGS]):
        for i, pts, rows in members:
            name, (a, b_) = _TRACE_CONFIGS[i]
            params, b = MixedParams(a, b_), bundle[rows]
            # the pointwise-constant value, from the scalar identity
            f = sphere_average_closed_form(b, params)
            res = trace_identity_residual(b, params, f)
            out[i] = _worst(f"trace-identity/alpha{a}-beta{b_}", name, res, 1e-8, "closed-form", pts)
    return out


# ---------------------------------------------------------------------------
# criterion: sphere-average


def _average_pairs():
    """Five seeded (alpha, beta) pairs, away from (0, 0), on which every metric's sphere average is checked."""
    rng = np.random.default_rng(71)
    pairs = []
    while len(pairs) < 5:
        a, b = rng.uniform(-2, 2, size=2)
        if abs(a) + abs(b) > 0.1:
            pairs.append(MixedParams(float(a), float(b)))
    return pairs


def check_sphere_average():
    pairs, catalog = _average_pairs(), names()
    per_metric = [None] * len(catalog)
    for members, Ru, bundle in _by_dimension([(name, 1, 71) for name in catalog]):
        Z, w = _sphere_design(Ru.n)
        # one call per pair: C at the design's points for every metric of this n, shape (metrics, points)
        values = [mixed_curvature(Ru, params, np.broadcast_to(Z, (len(Ru), *Z.shape))) for params in pairs]
        for i, pts, rows in members:
            k, out = rows.start, []  # one point per metric, so its row is k
            b = bundle[k]
            for params, C in zip(pairs, values):
                closed = sphere_average_closed_form(b, params)
                check_id = f"sphere-average/a{params.alpha:+.2f}-b{params.beta:+.2f}"
                res = abs(w @ C[k] - closed)  # the design's sum is exact; C @ w would round otherwise
                out.append(_outcome(check_id, catalog[i], res, 1e-12 * max(1.0, abs(closed)), "derived", pts[0]))
            per_metric[i] = out
    out = [o for outcomes in per_metric for o in outcomes]
    pt, Ru = _unitary("hopf-2", 1, 72)
    Z, w = _sphere_design(2)
    res = abs(w @ mixed_curvature(Ru[0], MixedParams(0.0, 1.0), Z) - 0.5)
    out.append(_outcome("sphere-average/hopf-half", "hopf-2", res, 1e-12, "derived", pt[0]))
    return out


# ---------------------------------------------------------------------------
# criterion: hopf-torsion


def check_hopf_torsion():
    out = []
    for n in (2, 3):
        pts, jets, Rc = _sampled(f"hopf-{n}", 50, 83 + n)
        b, t = ricci_bundle(Rc), torsion(jets)
        closed = builtin(f"hopf-{n}").expected["eta_norm2"].value
        res = np.maximum(np.abs(b.u - b.v - t.eta_norm2), np.abs(t.eta_norm2 - closed))
        out.append(_worst(f"hopf-torsion/n{n}", f"hopf-{n}", res, 1e-9, "derived", pts))
    return out


# ---------------------------------------------------------------------------
# criterion: fd-cross-check


def check_fd():
    out = []
    for name in names():
        entry = builtin(name)
        pts = sample_points(entry, 20, 97)
        worst = ex.fd_residual(entry.spec.program, pts)
        out.append(_outcome("fd-cross-check/entries", name, worst, 1e-6, "derived"))
    rng = np.random.default_rng(97)
    pts = rng.uniform(-0.5, 0.5, size=(20, 6)).view(complex)
    worst = ex.fd_residual(ex.compile_program([parse_expression(ftext, 3) for ftext in _FACTORS]), pts)
    out.append(_outcome("fd-cross-check/conformal-factors", "(factors)", worst, 1e-6, "derived"))
    return out


# ---------------------------------------------------------------------------
# criterion: nonconstancy-witness


def check_nonconstancy_witness():
    pt, Ru = _unitary("hopf-2", 1, 99)
    rep = extremize(Ru[0], MixedParams(0.0, 1.0))
    # witness check: spread must EXCEED 1e-2, so the residual is the shortfall
    return [_outcome("nonconstancy-witness/hopf-hsc-spread", "hopf-2", 1e-2 - rep.spread, 0.0, "derived", pt[0])]


# ---------------------------------------------------------------------------
# criterion: catalog-expected


def check_catalog_expected():
    out = []
    for name in names():
        entry = builtin(name)
        n = entry.spec.n
        pts = sample_points(entry, 50, 7)
        jets = metric_jets(entry.spec, pts)
        Rc = chern_curvature(jets)
        b, t = ricci_bundle(Rc), torsion(jets)
        # "hsc" may use any nonzero direction
        directions = {"hsc": pts + np.linspace(1.0, 2.0, n), "hsc_axis1": [1, 0], "hsc_axis2": [0, 1]}
        tol = 1e-8 if name.startswith(("fubini", "complex")) else 1e-9
        for key, expected in entry.expected.items():
            target = expected.value
            if key in directions:
                value = holomorphic_sectional(Rc, directions[key])
            elif key == "rho1_unitary":
                value, target = ricci_bundle(to_unitary_frame(Rc)).rho1, np.diag(target)
            else:
                value = getattr(t if key == "eta_norm2" else b, key)
            res = np.max(np.abs(value - target))
            out.append(_outcome(f"catalog-expected/{key}", name, res, tol, expected.provenance))
        herm = np.max(hermitian_symmetry_residual(Rc))
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


def run_checks(suite: str = "all", tol_override: float | None = None):
    """Run a suite; tol_override replaces every tolerance (forcing-failure knob)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {sorted(SUITES)}")
    outcomes = []
    for name in SUITES[suite]:
        outcomes.extend(CRITERIA[name]())
    if tol_override is not None:
        outcomes = [replace(o, tolerance=tol_override, passed=o.residual <= tol_override) for o in outcomes]
    return outcomes
