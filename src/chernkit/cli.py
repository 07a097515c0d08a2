"""Command-line front end.

    chernkit eval --metric <name|file> --points N --seed S --alpha A --beta B
                  [--point "re+imi,..."] [--conformal EXPR] [--out FILE]
    chernkit verify [--suite all|core|mixed|conformal|surface|catalog] [--tol T]
    chernkit extremize --metric <name|file> --points N --seed S --alpha A --beta B
                       [--point "re+imi,..."] [--out FILE]
    chernkit catalog list

Exit codes: 0 = success / all checks pass, 1 = verification failures,
2 = input, parse or file errors.

eval and extremize evaluate a metric's points as one batch: one jets call,
one pass of each curvature kernel and one extremizer call over every point
and (alpha, beta) pair.  A point that fails, at the jets checks or in a
kernel, gets its own error: eval writes it into that point's record,
extremize exits 2 naming the first, and runs its kernels on no point after
the first that fails the jets checks.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import report
from .catalog import builtin, names
from .checks import SUITES, run_checks
from .conformal import conformal_metric
from .dsl import MetricSpec, parse_expression, parse_metric
from .expr import EvaluationError
from .geometry import (
    chern_curvature,
    kahler_defect,
    kahler_like_defect,
    ricci_bundle,
    to_unitary_frame,
    torsion,
)
from .jets import MetricError, _jets, metric_jets
from .jets import metric_jet  # noqa: F401  (perfbench's tracer test reads cli.metric_jet)
from .mixed import MixedParams, _extrema

SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


def _resolve_metric(source: str) -> MetricSpec:
    if source in names():
        return builtin(source).spec
    path = Path(source)
    if path.is_file():
        return parse_metric(path.read_text(), name=path.stem)
    raise InputError(
        f"{source!r} is neither a catalog metric nor a readable file (see `chernkit catalog list`)"
    )


def _parse_point(text: str, n: int) -> np.ndarray:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise InputError(f"point {text!r} has {len(parts)} coordinates, expected {n}")
    try:
        z = np.array([complex(s.replace("i", "j")) for s in parts])
    except ValueError as err:
        raise InputError(f"bad point {text!r}: {err}") from err
    if not np.all(np.isfinite(z)):
        raise InputError(f"point {text!r} has a coordinate that is not finite")
    return z


def _point_text(p) -> str:
    """A point in the "a+bi,..." syntax of --point, every digit kept."""
    return ",".join(f"{float(z.real)!r}{float(z.imag):+}i" for z in p)


def _points_for(args, spec: MetricSpec) -> np.ndarray:
    if args.seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.point:
        return np.stack([_parse_point(t, spec.n) for t in args.point])
    if args.points < 1:
        raise InputError("need at least one point")
    rng = np.random.default_rng(args.seed)
    return spec.domain.sample(spec.n, args.points, rng)


def _pairs_for(args) -> list:
    alphas, betas = args.alpha or [], args.beta or []
    if len(alphas) != len(betas):
        raise InputError("--alpha and --beta must be given the same number of times")
    if not alphas:  # the holomorphic sectional curvature H alone
        alphas, betas = [0.0], [1.0]
    try:
        return [MixedParams(a, b) for a, b in zip(alphas, betas)]
    except ValueError as err:
        raise InputError(str(err)) from err


def _mixed_row(params: MixedParams, rep) -> dict:
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "min": rep.min_value,
        "max": rep.max_value,
        "spread": rep.spread,
        "argmin": rep.argmin,
        "argmax": rep.argmax,
        "restarts_used": rep.restarts_used,
        "converged": rep.converged,
        "bound_gap": rep.bound_gap,
        "path": rep.path,
    }


def _bodies(jets, pairs) -> list:
    """One record body per point of the batch, from one pass of each kernel."""
    Rc = chern_curvature(jets)
    Ru = to_unitary_frame(Rc)
    b = ricci_bundle(Rc)
    t = torsion(jets)
    eig, kd, kld = np.linalg.eigvalsh(jets.g), kahler_defect(jets), kahler_like_defect(Ru)
    return [
        {
            "g_eigenvalues": eig[k],
            "kahler_defect": kd[k],
            "kahler_like_defect": kld[k],
            "u": b.u[k],
            "v": b.v[k],
            "eta_norm2": t.eta_norm2[k],
            "ricci": {rho: getattr(b, rho)[k] for rho in ("rho1", "rho2", "rho3", "rho4")},
            "mixed": [_mixed_row(params, rep) for params, rep in zip(pairs, reports)],
        }
        for k, reports in enumerate(_extrema(Ru, pairs))
    ]


def _kernels(jets, kernels) -> list:
    """kernels(jets), one result per point.  If a kernel rejects the batch, each point runs alone, and
    a point that a kernel rejects on its own gets that MetricError."""
    try:
        return kernels(jets)
    except MetricError as err:
        if len(jets) == 1:
            return [err]
        return [out for k in range(len(jets)) for out in _kernels(jets[k : k + 1], kernels)]


def _per_point(spec: MetricSpec, pts, kernels, stop=False) -> list:
    """One result per point: what kernels(jets) gives it, or the MetricError or EvaluationError that
    stopped it.  One jets call, and one kernels pass over the points that pass the metric's checks; with
    stop, over the points before the first that fails them, and the list ends at that point."""
    try:
        jets, reasons = metric_jets(spec, pts), [None] * len(pts)
    except (MetricError, EvaluationError):  # name the failing points; the others still evaluate
        jets, reasons = _jets(spec, pts)
        if stop:
            first = next(k for k, why in enumerate(reasons) if why is not None)
            jets, reasons = jets[:first], reasons[: first + 1]
    results = iter(_kernels(jets, kernels) if len(jets) else ())
    return [next(results) if why is None else why for why in reasons]


def cmd_eval(args) -> int:
    spec = _resolve_metric(args.metric)
    if args.conformal:
        spec = conformal_metric(spec, parse_expression(args.conformal, spec.n))
    pts = _points_for(args, spec)
    pairs = _pairs_for(args)
    results = _per_point(spec, pts, lambda jets: _bodies(jets, pairs))
    records = [{"point": p, **({"error": str(r)} if isinstance(r, Exception) else r)} for p, r in zip(pts, results)]
    doc = {
        "schema": SCHEMA_VERSION,
        "metric": args.metric,
        "config": {
            "points": len(pts),
            "seed": args.seed,
            "conformal": args.conformal,
            "pairs": [[p.alpha, p.beta] for p in pairs],
        },
        "records": records,
    }
    text = report.dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 2 if any("error" in r for r in records) else 0


def cmd_verify(args) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    outcomes = run_checks(args.suite, tol_override=args.tol)
    width = max(len(o.check_id) for o in outcomes)
    mwidth = max(len(o.metric) for o in outcomes)
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(
            f"{status}  {o.check_id:<{width}}  {o.metric:<{mwidth}}  "
            f"residual={o.residual: .3e}  tol={o.tolerance:.3e}  [{o.provenance}]"
        )
    failed = sum(not o.passed for o in outcomes)
    print(f"{len(outcomes)} checks, {failed} failed")
    return 1 if failed else 0


def cmd_extremize(args) -> int:
    spec = _resolve_metric(args.metric)
    pts = _points_for(args, spec)
    pairs = _pairs_for(args)
    extrema = _per_point(spec, pts, lambda jets: _extrema(to_unitary_frame(chern_curvature(jets)), pairs), stop=True)
    rows = []
    for p, reports in zip(pts, extrema):
        if isinstance(reports, Exception):  # the first failing point, whichever stage rejects it
            raise InputError(f"at point {_point_text(p)}: {reports}") from reports
        rows += [(p, params, rep) for params, rep in zip(pairs, reports)]
    header = f"{'point':<40} {'alpha':>7} {'beta':>7} {'min':>13} {'max':>13} {'spread':>12}  conv"
    print(header)
    for p, params, rep in rows:
        pt = ", ".join(f"{z.real:.3f}{z.imag:+.3f}i" for z in p)
        print(
            f"{pt:<40} {params.alpha:>7.3g} {params.beta:>7.3g} "
            f"{rep.min_value:>13.6e} {rep.max_value:>13.6e} {rep.spread:>12.3e}  "
            f"{'yes' if rep.converged else 'NO'}"
        )
    if args.out:
        doc = {
            "schema": SCHEMA_VERSION,
            "metric": args.metric,
            "rows": [{"point": p, **_mixed_row(params, rep)} for p, params, rep in rows],
        }
        Path(args.out).write_text(report.dumps(doc))
    return 0


def cmd_catalog(args) -> int:
    for name in names():
        e = builtin(name)
        kind = "kahler" if e.kahler else "non-kahler"
        print(f"{name:<24} n={e.spec.n}  {kind:<11} {e.notes}")
    return 0


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chernkit", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--metric", required=True, help="catalog name or DSL file path")
    shared.add_argument("--points", type=int, default=5, help="number of points sampled from the metric's domain")
    shared.add_argument("--seed", type=int, default=0, help="seed of the point sample")
    shared.add_argument("--alpha", type=float, action="append", help="weight of Ric in C_{alpha,beta} (repeatable)")
    shared.add_argument("--beta", type=float, action="append", help="weight of H in C_{alpha,beta} (repeatable)")
    shared.add_argument("--point", action="append", help='explicit point "a+bi,c+di,..." (repeatable)')

    pe = sub.add_parser("eval", parents=[shared], help="curvature report at sampled or given points")
    pe.add_argument("--conformal", help="real DSL expression F; report is for exp(2F) g")
    pe.add_argument("--out", help="write the JSON report here instead of stdout")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run the verification battery")
    pv.add_argument("--suite", default="all", choices=sorted(SUITES))
    pv.add_argument("--tol", type=float, help="override every tolerance")
    pv.set_defaults(func=cmd_verify)

    px = sub.add_parser("extremize", parents=[shared], help="mixed-curvature extrema over unit directions")
    px.add_argument("--out", help="also write a JSON table here")
    px.set_defaults(func=cmd_extremize)

    pc = sub.add_parser("catalog", help="inspect built-in metrics")
    pc.add_argument("action", choices=["list"])
    pc.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # input, DSL, metric and evaluation errors are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
