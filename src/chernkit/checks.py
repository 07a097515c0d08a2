"""The verification battery.

Every criterion below re-derives a closed-form value or checks an identity
residual against a pinned tolerance, over deterministic point samples of the
built-in metrics.  Each criterion is a fixed recipe: it takes no arguments,
and its tolerances are written where it uses them, so every run checks the
same points.  The CLI `verify` command and the acceptance test suite both run
these checks.

The sample plan.  SAMPLES lists, for each criterion, the (metric, count,
seed) of every catalog sample it takes, and the criterion reads its samples
from there.  run_checks builds a _Plan from the samples of its suite's
criteria: the first time the run takes a metric, one metric_jets call
evaluates that metric on the concatenated points of all its planned samples,
and each criterion then takes its own rows (_take), which the plan drops.
So a run makes one call per catalog metric that it takes (only
conformal-law's conformal metrics make calls of their own: one per metric
and factor, over the points of all that metric's samples), and a suite
evaluates only what its criteria take.  A criterion called on its
own, outside run_checks, makes one call per sample.  A point's jets do not
depend on its batch, so the outcomes are bit-identical either way.  The
plan ends with its run.

Most criteria run each kernel once per metric, over all its points.  The two
that take only a few points per metric, sphere-average (one) and
trace-identity (20), group their metrics by dimension instead
(_by_dimension): the jets of each n are concatenated, and chern_curvature,
to_unitary_frame and ricci_bundle run once over them; sphere-average then
makes one mixed_curvature call per dimension and pair, on the batch of R
with the cubature rows of each.  The outcomes are bit-identical to one
kernel pass per metric.

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

from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .catalog import builtin, names, sample_points
from .conformal import (
    _conformal_spec,
    conformal_curvature_via_formula,
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


class _Plan:
    """The catalog jets of one run: one metric_jets call per metric, over every sample the run plans for it.

    A metric's call is made the first time the run takes one of its samples.  Each sample's rows
    are copied out and kept until it is taken, then dropped.  A point's jets do not depend on its
    batch, so a sample's rows are the jets of its own call, bit for bit.
    """

    def __init__(self, criteria):
        self.pending = {}  # metric -> its planned (count, seed) pairs, in the run's order
        for criterion in criteria:
            for name, count, seed in SAMPLES.get(criterion, ()):
                self.pending.setdefault(name, []).append((count, seed))
        self.ready = {}  # (metric, count, seed) -> (points, jets), until taken

    def take(self, name: str, count: int, seed: int):
        """(points, jets) of a planned sample, or None for a sample the run does not plan."""
        if name in self.pending:
            entry, samples = builtin(name), self.pending.pop(name)
            pts = [sample_points(entry, c, s) for c, s in samples]
            jets = metric_jets(entry.spec, np.concatenate(pts))
            ends = np.cumsum([c for c, _ in samples]).tolist()
            for (c, s), p, end in zip(samples, pts, ends):
                # a copy, not a view, so the call's arrays are freed once every sample has its rows
                rows = jets[end - c : end]
                self.ready[name, c, s] = (p, MetricJet(*(getattr(rows, f).copy() for f in _field_names(MetricJet))))
        return self.ready.pop((name, count, seed), None)


_plan: ContextVar[_Plan | None] = ContextVar("_plan", default=None)  # the plan of the run_checks call in progress


def _take(name: str, count: int, seed: int):
    """(points, jets) of a catalog metric at seeded points: the run's rows, or a call of their own outside a run."""
    plan = _plan.get()
    taken = plan.take(name, count, seed) if plan is not None else None
    if taken is None:
        entry = builtin(name)
        pts = sample_points(entry, count, seed)
        taken = pts, metric_jets(entry.spec, pts)
    return taken


def _sampled(name: str, count: int, seed: int):
    """(points, jets, coordinate-frame curvature) of a catalog metric at seeded points."""
    pts, jets = _take(name, count, seed)
    return pts, jets, chern_curvature(jets)


def _unitary(name: str, count: int, seed: int):
    """(points, unitary-frame curvature) of a catalog metric at seeded points."""
    pts, _, Rc = _sampled(name, count, seed)
    return pts, to_unitary_frame(Rc)


def _by_dimension(samples):
    """Catalog metrics at seeded points, grouped by dimension: (members, Ru, bundle) for each n.

    samples holds (name, count, seed) triples, each taken as _take does.  The jets of one n are
    concatenated, so chern_curvature, to_unitary_frame and ricci_bundle run once per dimension, not
    once per metric.  members holds (i, points, rows) for each sample i of that n, in order, rows
    being its slice of the unitary-frame curvature Ru and of its Ricci bundle, bit-identical to the
    metric's own kernel calls.
    """
    groups = {}
    for i, sample in enumerate(samples):
        pts, jets = _take(*sample)
        groups.setdefault(jets.n, []).append((i, pts, jets))
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
    for name, count, seed in SAMPLES["hopf-closed-form"]:
        pts, Ru = _unitary(name, count, seed)
        n, closed, expected = Ru.n, _hopf_closed_tensor(pts), builtin(name).expected
        b = ricci_bundle(Ru)
        for tag, res in (
            ("curvature", _max_abs(Ru.tensor - closed, 4)),
            ("u", np.abs(b.u - expected["u"].value)),
            ("v", np.abs(b.v - expected["v"].value)),
            ("rho1", _max_abs(b.rho1 - np.einsum("...ijkk->...ij", closed), 2)),
        ):
            out.append(_worst(f"hopf-closed-form/{tag}/n{n}", name, res, 1e-10, "closed-form", pts))
    return out


# ---------------------------------------------------------------------------
# criterion: hopf-mixed-vanishing


def check_hopf_mixed_vanishing():
    out = []
    rng = np.random.default_rng(23)
    for name, count, seed in SAMPLES["hopf-mixed-vanishing"]:
        pts, _, Rc = _sampled(name, count, seed)
        n = Rc.n
        params = MixedParams(1.0, -float(n))
        X = _directions(rng, len(pts), n)
        for tag, res in (
            ("value", np.abs(mixed_curvature(Rc, params, X))),
            ("tensor", constancy_tensor_residual(Rc, params, 0.0)),
        ):
            out.append(_worst(f"hopf-mixed-vanishing/{tag}/n{n}", name, res, 1e-10, "closed-form", pts))
    return out


# ---------------------------------------------------------------------------
# criterion: euclidean-sanity


def check_euclidean_sanity():
    out = []
    rng = np.random.default_rng(5)
    for name, count, seed in SAMPLES["euclidean-sanity"]:
        pts, jets, Rc = _sampled(name, count, seed)
        n, Ru = Rc.n, to_unitary_frame(Rc)
        t = torsion(jets)
        X = _directions(rng, len(pts), n)
        parts = [Rc.tensor, t.T, t.eta_norm2, mixed_curvature(Rc, MixedParams(0.7, 1.3), X)]
        if n == 2:
            w = weyl_minus(Ru)
            parts += [w.w1, w.w2, w.w3]
        worst = max(np.max(np.abs(x)) for x in parts)
        out.append(_outcome(f"euclidean-sanity/n{n}", name, worst, 1e-12, "trivial"))
    return out


# ---------------------------------------------------------------------------
# criterion: space-forms


def check_space_forms():
    out = []
    for name, count, seed in SAMPLES["space-forms"]:
        pts, jets, Rc = _sampled(name, count, seed)
        Ru = to_unitary_frame(Rc)
        b = ricci_bundle(Rc)
        reps = [rep for (rep,) in _extrema(Ru, [MixedParams(0.0, 1.0)])]
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

_FACTORS = (
    "0.1*(z1*zbar1 - z2*zbar2)",
    "0.05*z1*zbar1",
    "0.1*(z1*zbar2 + z2*zbar1)",
)


def check_conformal_law():
    """The conformal law on each sample and factor.  Each (metric, factor) pair takes one factor_jet and
    one metric_jets call over the points of all that metric's samples, and each sample its rows of both."""
    samples = SAMPLES["conformal-law"]
    taken = [_sampled(*sample) for sample in samples]
    rows = {}  # (sample index, factor) -> (jets of F, jets of e^{2F} g) at that sample's points
    for name in dict.fromkeys(name for name, _, _ in samples):
        ks = [k for k, (other, _, _) in enumerate(samples) if other == name]
        pts = np.concatenate([taken[k][0] for k in ks])
        ends = np.cumsum([len(taken[k][0]) for k in ks]).tolist()
        base = builtin(name).spec
        for ftext in _FACTORS:
            f_jets = factor_jet(parse_expression(ftext, base.n), pts)
            tilde_jets = metric_jets(_conformal_spec(base, ftext), pts)
            for k, end in zip(ks, ends):
                part = slice(end - len(taken[k][0]), end)
                rows[k, ftext] = f_jets[part], tilde_jets[part]
    out = []
    for k, (name, _, _) in enumerate(samples):
        pts, jets, Rc = taken[k]
        for ftext in _FACTORS:
            f_jet, tilde_jet = rows[k, ftext]
            if k < 3:  # the equivalence samples come first, then the surface scalar relations'
                direct = chern_curvature(tilde_jet).tensor
                pred = conformal_curvature_via_formula(Rc, f_jet)
                res = _max_abs(pred.tensor - direct, 4) / np.maximum(1.0, _max_abs(direct, 4))
                out.append(_worst(f"conformal-law/equivalence/{ftext}", name, res, 1e-8, "derived", pts))
            else:
                res = np.maximum(*surface_scalar_relation_residual(jets, f_jet, tilde_jet))
                out.append(_worst(f"conformal-law/scalar-relations/{ftext}", name, res, 1e-8, "derived", pts))
    return out


# ---------------------------------------------------------------------------
# criterion: surface-identities


def check_surface_identities():
    out = []
    for name, count, seed in SAMPLES["surface-identities"]:
        pts, Ru = _unitary(name, count, seed)
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
    for members, _, bundle in _by_dimension(SAMPLES["trace-identity"]):
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
    pairs, (*design, half) = _average_pairs(), SAMPLES["sphere-average"]
    per_metric = [None] * len(design)
    for members, Ru, bundle in _by_dimension(design):
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
                out.append(_outcome(check_id, design[i][0], res, 1e-12 * max(1.0, abs(closed)), "derived", pts[0]))
            per_metric[i] = out
    out = [o for outcomes in per_metric for o in outcomes]
    pt, Ru = _unitary(*half)
    Z, w = _sphere_design(Ru.n)
    res = abs(w @ mixed_curvature(Ru[0], MixedParams(0.0, 1.0), Z) - 0.5)
    out.append(_outcome("sphere-average/hopf-half", half[0], res, 1e-12, "derived", pt[0]))
    return out


# ---------------------------------------------------------------------------
# criterion: hopf-torsion


def check_hopf_torsion():
    out = []
    for name, count, seed in SAMPLES["hopf-torsion"]:
        pts, jets, Rc = _sampled(name, count, seed)
        b, t = ricci_bundle(Rc), torsion(jets)
        closed = builtin(name).expected["eta_norm2"].value
        res = np.maximum(np.abs(b.u - b.v - t.eta_norm2), np.abs(t.eta_norm2 - closed))
        out.append(_worst(f"hopf-torsion/n{Rc.n}", name, res, 1e-9, "derived", pts))
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
    ((name, count, seed),) = SAMPLES["nonconstancy-witness"]
    pt, Ru = _unitary(name, count, seed)
    rep = extremize(Ru[0], MixedParams(0.0, 1.0))
    # witness check: spread must EXCEED 1e-2, so the residual is the shortfall
    return [_outcome("nonconstancy-witness/hopf-hsc-spread", name, 1e-2 - rep.spread, 0.0, "derived", pt[0])]


# ---------------------------------------------------------------------------
# criterion: catalog-expected


def check_catalog_expected():
    out = []
    for name, count, seed in SAMPLES["catalog-expected"]:
        entry = builtin(name)
        n = entry.spec.n
        pts, jets, Rc = _sampled(name, count, seed)
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

# (metric, count, seed) of every catalog sample a criterion takes through _take, in the order it takes them;
# run_checks plans its metric_jets calls from the samples of its suite's criteria
SAMPLES = {
    "hopf-closed-form": [(f"hopf-{n}", 200, 11 + n) for n in (2, 3)],
    "hopf-mixed-vanishing": [(f"hopf-{n}", 100, 23 + n) for n in (2, 3)],
    "euclidean-sanity": [(f"euclidean-{n}", 20, 5 + n) for n in (2, 3)],
    "space-forms": [
        (name, 50, 31) for name in ("fubini-study-2", "fubini-study-3", "complex-hyperbolic-2", "complex-hyperbolic-3")
    ],
    "conformal-law": [(name, 10, 41) for name in ("fubini-study-2", "hopf-2", "complex-hyperbolic-3")]  # equivalence
    + [(name, 10, 42) for name in ("fubini-study-2", "hopf-2")],  # then the surface scalar relations
    "surface-identities": [
        (name, 50, 53)
        for name in ("euclidean-2", "fubini-study-2", "complex-hyperbolic-2", "hopf-2", "adm-product-surface",
                     "isosceles-hopf-surface")
    ],
    "trace-identity": [(name, 20, 61) for name, _ in _TRACE_CONFIGS],
    "sphere-average": [*((name, 1, 71) for name in names()), ("hopf-2", 1, 72)],
    "hopf-torsion": [(f"hopf-{n}", 50, 83 + n) for n in (2, 3)],
    "nonconstancy-witness": [("hopf-2", 1, 99)],
    "catalog-expected": [(name, 50, 7) for name in names()],
}

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
    """Run a suite; tol_override replaces every tolerance (forcing-failure knob).

    The suite's criteria take their catalog jets from one _Plan, which ends with the run.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {sorted(SUITES)}")
    token = _plan.set(_Plan(SUITES[suite]))
    try:
        outcomes = [o for name in SUITES[suite] for o in CRITERIA[name]()]
    finally:
        _plan.reset(token)
    if tol_override is not None:
        outcomes = [replace(o, tolerance=tol_override, passed=o.residual <= tol_override) for o in outcomes]
    return outcomes
