"""Command-line front end.

    chernkit eval --metric <name|file> --points N --seed S --alpha A --beta B
                  [--conformal EXPR] [--point "re+imi,..."] [--out FILE] [--parallel]
    chernkit verify [--suite all|core|mixed|conformal|surface|catalog] [--tol T]
    chernkit extremize --metric <name|file> --alpha A --beta B --points N --seed S [--out FILE]
    chernkit catalog list

Exit codes: 0 = success / all checks pass, 1 = verification failures,
2 = input or parse errors.  CHERNKIT_TOL overrides the default verify
tolerances when --tol is not given.  eval accepts --parallel for
compatibility; points are always evaluated serially, so the output is the
same with or without it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import report
from .catalog import builtin, names
from .checks import SUITES, run_checks
from .conformal import conformal_metric
from .dsl import DslError, MetricSpec, parse_expression, parse_metric
from .expr import EvaluationError
from .geometry import (
    chern_curvature,
    kahler_defect,
    kahler_like_defect,
    ricci_bundle,
    to_unitary_frame,
    torsion,
)
from .jets import MetricError, metric_jet
from .mixed import MixedParams, extremize

SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


def _resolve_metric(source: str) -> MetricSpec:
    if source in names():
        return builtin(source).spec
    path = Path(source)
    if path.exists():
        return parse_metric(path.read_text(), name=path.stem)
    raise InputError(
        f"{source!r} is neither a catalog metric nor a readable file (see `chernkit catalog list`)"
    )


def _parse_point(text: str, n: int) -> np.ndarray:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise InputError(f"point {text!r} has {len(parts)} coordinates, expected {n}")
    try:
        return np.array([complex(s.replace("i", "j")) for s in parts])
    except ValueError as err:
        raise InputError(f"bad point {text!r}: {err}") from err


def _points_for(args, spec: MetricSpec) -> np.ndarray:
    if args.point:
        return np.stack([_parse_point(t, spec.n) for t in args.point])
    if args.points < 1:
        raise InputError("need at least one point")
    rng = np.random.default_rng(args.seed)
    return spec.domain.sample(spec.n, args.points, rng)


def _pairs_for(args, default=((0.0, 1.0),)) -> list:
    alphas = args.alpha or []
    betas = args.beta or []
    if len(alphas) != len(betas):
        raise InputError("--alpha and --beta must be given the same number of times")
    if not alphas:
        alphas, betas = [p[0] for p in default], [p[1] for p in default]
    try:
        return [MixedParams(a, b) for a, b in zip(alphas, betas)]
    except ValueError as err:
        raise InputError(str(err)) from err


def _eval_record(spec: MetricSpec, point, pairs) -> dict:
    try:
        jet = metric_jet(spec, point)
        Rc = chern_curvature(jet)
        Ru = to_unitary_frame(Rc, jet)
        b = ricci_bundle(Rc, jet.g)
        t = torsion(jet)
        record = {
            "point": report.point_json(point),
            "g_eigenvalues": [float(x) for x in np.linalg.eigvalsh(jet.g)],
            "kahler_defect": kahler_defect(jet),
            "kahler_like_defect": kahler_like_defect(Ru),
            "u": b.u,
            "v": b.v,
            "eta_norm2": t.eta_norm2,
            "ricci": {
                "rho1": report.matrix_json(b.rho1),
                "rho2": report.matrix_json(b.rho2),
                "rho3": report.matrix_json(b.rho3),
                "rho4": report.matrix_json(b.rho4),
            },
            "mixed": [],
        }
        for params in pairs:
            rep = extremize(Ru, np.eye(spec.n), params)
            record["mixed"].append(
                {
                    "alpha": params.alpha,
                    "beta": params.beta,
                    "min": rep.min_value,
                    "max": rep.max_value,
                    "spread": rep.spread,
                    "argmin": report.point_json(rep.argmin),
                    "argmax": report.point_json(rep.argmax),
                    "restarts_used": rep.restarts_used,
                    "converged": rep.converged,
                }
            )
        return record
    except (MetricError, EvaluationError) as err:
        return {"point": report.point_json(point), "error": str(err)}


def cmd_eval(args) -> int:
    spec = _resolve_metric(args.metric)
    if args.conformal:
        spec = conformal_metric(spec, parse_expression(args.conformal, spec.n))
    pts = _points_for(args, spec)
    pairs = _pairs_for(args)
    records = [_eval_record(spec, p, pairs) for p in pts]
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
    tol = args.tol
    if tol is None and (env := os.environ.get("CHERNKIT_TOL")):
        tol = float(env)
    outcomes = run_checks(args.suite, tol_override=tol)
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
    rows = []
    for p in pts:
        jet = metric_jet(spec, p)
        Ru = to_unitary_frame(chern_curvature(jet), jet)
        for params in pairs:
            rep = extremize(Ru, np.eye(spec.n), params)
            rows.append((p, params, rep))
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
            "rows": [
                {
                    "point": report.point_json(p),
                    "alpha": params.alpha,
                    "beta": params.beta,
                    "min": rep.min_value,
                    "max": rep.max_value,
                    "spread": rep.spread,
                    "argmin": report.point_json(rep.argmin),
                    "argmax": report.point_json(rep.argmax),
                    "converged": rep.converged,
                }
                for p, params, rep in rows
            ],
        }
        Path(args.out).write_text(report.dumps(doc))
    return 0


def cmd_catalog(args) -> int:
    if args.action != "list":
        raise InputError(f"unknown catalog action {args.action!r}")
    for name in names():
        e = builtin(name)
        kind = "kahler" if e.kahler else "non-kahler"
        print(f"{name:<24} n={e.spec.n}  {kind:<11} {e.notes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chernkit", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="curvature report at sampled or given points")
    pe.add_argument("--metric", required=True, help="catalog name or DSL file path")
    pe.add_argument("--points", type=int, default=5)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--alpha", type=float, action="append")
    pe.add_argument("--beta", type=float, action="append")
    pe.add_argument("--conformal", help="real DSL expression F; report is for exp(2F) g")
    pe.add_argument("--point", action="append", help='explicit point "a+bi,c+di,..." (repeatable)')
    pe.add_argument("--out", help="write the JSON report here instead of stdout")
    pe.add_argument(
        "--parallel", action="store_true", help="accepted for compatibility; points are evaluated serially"
    )
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run the verification battery")
    pv.add_argument("--suite", default="all", choices=sorted(SUITES))
    pv.add_argument("--tol", type=float, help="override every tolerance (also: CHERNKIT_TOL)")
    pv.set_defaults(func=cmd_verify)

    px = sub.add_parser("extremize", help="mixed-curvature extrema over unit directions")
    px.add_argument("--metric", required=True)
    px.add_argument("--points", type=int, default=5)
    px.add_argument("--seed", type=int, default=0)
    px.add_argument("--alpha", type=float, action="append")
    px.add_argument("--beta", type=float, action="append")
    px.add_argument("--point", action="append")
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
    except (InputError, DslError, MetricError, EvaluationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
