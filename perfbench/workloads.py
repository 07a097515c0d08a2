"""The benchmark's workloads: inputs made from a seed, timed calls, checked outputs.

A workload is a closed loop with one caller.  One pass issues the
workload's calls in order, each after the previous one returned; every
pass repeats the same calls, so the outputs of later passes can be
compared bit for bit with the first.

- verify-battery: one call, `checks.run_checks("all")`, the battery that
  `chernkit verify` runs.  It takes no input, so the seed changes nothing.
  An operation is one check; it fails unless `passed`.
- eval-batch-highdim: `eval --points=4` on each n = 3, 4 space form with the
  pair (0, 1), the n = 3 ones twice; the seed picks each call's `--seed`.  Jets dominate and the
  extremizer finishes at once because H is constant.
- eval-interactive-surfaces: single-point `eval --point=...` calls with two
  (alpha, beta) pairs on the non-constant surfaces and hopf-3, plus
  euclidean-2 made into the hopf-2 metric by a conformal factor, whose
  derivative tables are rebuilt inside every call.  The extremizer
  dominates.

An eval operation is one record.  It fails if it holds an error, if u, v or
|eta|^2 differ from the catalog's closed-form table by more than 1e-8, if
the closed-form sphere average of C_{alpha,beta} falls outside the reported
[min, max], if min or max differs from H on a space form with the pair
(0, 1), or if the call's output differs from the first pass's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

REF_TOL = 1e-8

# Each n = 3 metric is called twice per pass, so that two thirds of the calls
# are n = 3: the median call then falls inside the n = 3 calls and p90 inside
# the n = 4 calls, not in the gap between the two groups' latencies.
BATCH_METRICS = (
    "fubini-study-3",
    "fubini-study-4",
    "complex-hyperbolic-3",
    "fubini-study-3",
    "complex-hyperbolic-4",
    "complex-hyperbolic-3",
)
BATCH_POINTS = 4

HOPF_TO_CONFORMAL = "-0.5*log(abs2(z))"  # e^{2F} times the flat metric is the hopf-2 metric
# label -> (catalog metric, n, conformal factor, metric whose expected table applies)
INTERACTIVE_METRICS = {
    "hopf-2": ("hopf-2", 2, None, "hopf-2"),
    "hopf-3": ("hopf-3", 3, None, "hopf-3"),
    "adm-product-surface": ("adm-product-surface", 2, None, "adm-product-surface"),
    "isosceles-hopf-surface": ("isosceles-hopf-surface", 2, None, "isosceles-hopf-surface"),
    "euclidean-2+conformal": ("euclidean-2", 2, HOPF_TO_CONFORMAL, "hopf-2"),
}
INTERACTIVE_POINTS = 80  # calls per metric per pass


@dataclass
class Call:
    label: str
    argv: list | None  # CLI arguments; None for the battery
    records: int = 0
    metric: str = ""  # catalog entry whose expected table checks the records
    n: int = 0


@dataclass
class Workload:
    name: str
    calls: list
    setup_items: list  # [metric, conformal factor or None, point as [re, im] pairs]
    first_hash: dict = field(default_factory=dict)

    def run_call(self, call: Call, clock):
        """Time one call on clock(); returns (seconds, output)."""
        if call.argv is None:
            run_checks = sys.modules["chernkit.checks"].run_checks
            start = clock()
            outcomes = run_checks("all")
            return clock() - start, outcomes
        cli = sys.modules["chernkit.cli"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            code = cli.main(call.argv)
            seconds = clock() - start
        return seconds, (code, out.getvalue(), err.getvalue())

    def check(self, call: Call, output):
        """(operations attempted, operations failed, first problem or None)."""
        if call.argv is None:
            failed = [o for o in output if not o.passed]
            problem = f"check {failed[0].check_id} failed" if failed else None
            return len(output), len(failed), problem
        code, text, err = output
        digest = hashlib.sha256(text.encode()).hexdigest()
        key = tuple(call.argv)
        if self.first_hash.setdefault(key, digest) != digest:
            return call.records, call.records, f"output of {call.argv} differs from the first pass"
        if code != 0:
            return call.records, call.records, f"{call.argv} exited with {code}: {err.strip()}"
        records = json.loads(text)["records"]
        if len(records) != call.records:
            return call.records, call.records, f"{call.argv} gave {len(records)} records"
        expected = sys.modules["chernkit.catalog"].builtin(call.metric).expected
        failed, problem = 0, None
        for rec in records:
            why = _record_problem(rec, expected, call.n)
            if why is not None:
                failed += 1
                problem = problem or f"{call.label}: {why}"
        return len(records), failed, problem


def _record_problem(rec, expected, n):
    if "error" in rec:
        return rec["error"]
    for key in ("u", "v", "eta_norm2"):
        if not abs(rec[key] - expected[key].value) <= REF_TOL:
            return f"{key} = {rec[key]!r}, expected {expected[key].value!r}"
    u, v = expected["u"].value, expected["v"].value
    for m in rec["mixed"]:
        a, b, lo, hi = m["alpha"], m["beta"], m["min"], m["max"]
        avg = (((n + 1) * a + b) * u + b * v) / (n * (n + 1))
        slack = REF_TOL * max(1.0, abs(avg))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo - slack <= avg <= hi + slack):
            return f"sphere average {avg!r} outside [{lo!r}, {hi!r}] for ({a}, {b})"
        if "hsc" in expected and (a, b) == (0.0, 1.0):
            h = expected["hsc"].value
            if not (abs(lo - h) <= REF_TOL and abs(hi - h) <= REF_TOL):
                return f"H extrema [{lo!r}, {hi!r}], expected {h!r}"
    return None


# ---------------------------------------------------------------------------
# input generation


def _point_arg(z) -> str:
    """A point in the CLI's "a+bi,..." syntax; repr keeps every digit."""
    parts = []
    for c in z:
        re, im = float(c.real), float(c.imag)
        parts.append(f"{re!r}{'-' if math.copysign(1.0, im) < 0 else '+'}{abs(im)!r}i")
    return ",".join(parts)


def _pairs(rng, count):
    """count (alpha, beta) pairs, their directions spread evenly round the circle.

    The extremizer's cost depends mostly on the direction of (alpha, beta),
    so stratifying it keeps a pass's cost the same from seed to seed.
    """
    angles = 2 * np.pi * _stratified(rng, count)
    radii = rng.uniform(0.5, 2.0, size=count)
    return [(round(float(r * np.cos(t)), 3), round(float(r * np.sin(t)), 3)) for r, t in zip(radii, angles)]


def _stratified(rng, count):
    """count numbers in [0, 1), one in each of count equal strata, shuffled."""
    return (rng.permutation(count) + rng.uniform(0.0, 1.0, size=count)) / count


def _surface_points(rng, label, n, count):
    """count points inside the metric's domain, spread evenly in their shape.

    |z_1|^2 / |z|^2 (for adm-product-surface, |z_1| and |z_2| themselves)
    is stratified, so that a pass's cost stays the same from seed to seed.
    """
    t = _stratified(rng, count)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=(count, n)))
    if label == "adm-product-surface":  # inside a 0.6-disc times a 2-disc
        radii = np.stack([0.5 * np.sqrt(t), 1.5 * np.sqrt(_stratified(rng, count))], axis=1)
        return radii * phases
    rest = rng.standard_normal((count, n - 1)) + 1j * rng.standard_normal((count, n - 1))
    rest *= (np.sqrt(1 - t) / np.linalg.norm(rest, axis=1))[:, None]
    z = np.concatenate([(np.sqrt(t) * phases[:, 0])[:, None], rest], axis=1)
    return z * rng.uniform(0.6, 1.8, size=count)[:, None]


def _setup_point(n):
    """A point inside the domain of every catalog metric of dimension n."""
    return [[0.3 / math.sqrt(n), 0.1 / math.sqrt(n)]] * n


def verify_battery(seed: int) -> Workload:
    from chernkit.catalog import names

    items = []
    for name in names():
        tail = name.rsplit("-", 1)[1]
        items.append([name, None, _setup_point(int(tail) if tail.isdigit() else 2)])
    return Workload("verify-battery", [Call("battery", None)], items)


def eval_batch_highdim(seed: int, points: int = BATCH_POINTS, metrics=BATCH_METRICS) -> Workload:
    rng = np.random.default_rng(seed)
    calls = []
    for name in metrics:
        n = int(name.rsplit("-", 1)[1])
        call_seed = int(rng.integers(0, 2**31))
        argv = ["eval", "--metric", name, f"--points={points}", f"--seed={call_seed}", "--alpha=0", "--beta=1"]
        calls.append(Call(name, argv, points, name, n))
    items = [[name, None, _setup_point(int(name.rsplit("-", 1)[1]))] for name in dict.fromkeys(metrics)]
    return Workload("eval-batch-highdim", calls, items)


def eval_interactive_surfaces(seed: int, per_metric: int = INTERACTIVE_POINTS) -> Workload:
    rng = np.random.default_rng(seed)
    pairs = {label: _pairs(rng, 2 * per_metric) for label in INTERACTIVE_METRICS}
    points = {label: _surface_points(rng, label, n, per_metric) for label, (_, n, _, _) in INTERACTIVE_METRICS.items()}
    calls = []
    for i in range(per_metric):
        for label, (name, n, factor, ref) in INTERACTIVE_METRICS.items():
            argv = ["eval", "--metric", name, f"--point={_point_arg(points[label][i])}"]
            for a, b in pairs[label][2 * i : 2 * i + 2]:
                argv += [f"--alpha={a!r}", f"--beta={b!r}"]
            if factor is not None:
                argv.append(f"--conformal={factor}")
            calls.append(Call(label, argv, 1, ref, n))
    items = [[name, factor, _setup_point(n)] for name, n, factor, _ in INTERACTIVE_METRICS.values()]
    return Workload("eval-interactive-surfaces", calls, items)


WORKLOADS = {
    "verify-battery": verify_battery,
    "eval-batch-highdim": eval_batch_highdim,
    "eval-interactive-surfaces": eval_interactive_surfaces,
}
