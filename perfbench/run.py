"""The chernkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
`src` directory.  One process runs one workload (see workloads.py) in a
closed loop for about S seconds.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced passes with passes whose
layers are wrapped in spans (see tracing.py) and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # untraced passes in an end-to-end run, whatever --seconds says
SETUP_PROBES = 5  # fresh interpreters timed for setup_s
CRITERIA = (
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
)
README_VERIFY_PROMISE_S = 10.0
# ROADMAP's per-point eval table: (jet, extremize, whole record) in ms
ROADMAP_PER_POINT_MS = {
    "fubini-study-4": (52.9, 1.4, 53.0),
    "fubini-study-3": (29.2, 1.1, 29.1),
    "hopf-2": (1.5, 3.9, 5.6),
}


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads_env = {
        k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads_env,
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def process_threads() -> int:
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return -1


class Run:
    """Passes of one workload, with the totals its metrics are made from."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def one_pass(self, clock, tracer=None):
        """Issue every call once; returns the call durations on clock()."""
        wl = self.workload
        durations = []
        for call in wl.calls:
            if tracer is None:
                seconds, output = wl.run_call(call, clock)
            else:
                with tracer.span("bench.call/" + call.label):
                    seconds, output = wl.run_call(call, clock)
            attempted, failed, problem = wl.check(call, output)
            self.attempted += attempted
            self.failed += failed
            if problem is not None and len(self.problems) < 5:
                self.problems.append(problem)
            durations.append(seconds)
        return durations


def probe_setup(workload):
    """(reference-speed, wall) setup_s samples from fresh interpreters run one after another."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(workload.setup_items)]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        s, w = done.stdout.split()[-2:]
        scaled.append(float(s))
        wall.append(float(w))
    return scaled, wall


def measure_end_to_end(workload, seconds: float):
    import setup_probe
    from speed import SpeedClock

    setup, setup_wall = probe_setup(workload)
    setup_probe.set_up(workload.setup_items)
    run = Run(workload)
    passes, calls, walls = [], [], []
    start = perf_counter()
    with SpeedClock() as clock:
        while len(passes) < MIN_PASSES or perf_counter() - start + statistics.median(walls) <= seconds:
            began = perf_counter()
            durations = run.one_pass(clock.now)
            walls.append(perf_counter() - began)
            passes.append(sum(durations))
            calls.extend(durations)
    ok = run.attempted - run.failed
    p90 = statistics.quantiles(calls, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "points_per_s": (ok / sum(passes), "1/s"),
        "call_ms_p50": (1000 * statistics.median(calls), "ms"),
        "call_ms_p90": (1000 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes: {len(passes)}, calls: {len(calls)} ({sum(c > p90 for c in calls)} beyond p90)")
    print(f"machine speed: {clock.scaled / clock.wall:.3f} reference seconds per wall second")
    print(f"setup_s samples, reference s: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"setup_s samples, wall s: {', '.join(f'{s:.4f}' for s in setup_wall)}")
    if workload.name == "verify-battery":
        wall = statistics.median(walls)
        verdict = "kept" if wall < README_VERIFY_PROMISE_S else "NOT kept"
        print(
            f"verify-battery: wall_s {metrics['wall_s'][0]:.2f} s at reference speed, {wall:.2f} s "
            f"by the wall clock (probes included); README promises < {README_VERIFY_PROMISE_S:g} s: {verdict}"
        )
    return run, metrics


def layer_metrics(tracer, passes: int, setup_spans, overhead):
    """Per-layer metrics from the traced passes, averaged per pass."""
    import tracing

    self_s, incl_s, calls = tracing.self_times(tracer.spans)
    k = passes

    def ms(layer):
        return 1000 * self_s.get(layer, 0.0) / k, "ms"

    def per_pass(layer):
        return calls.get(layer, 0) / k, "count"

    c = tracer.counters
    jets_calls = calls.get("jets", 0)
    extremize_calls = calls.get("mixed.extremize", 0)
    m = {
        "dsl.parse_ms": ms("dsl.parse"),
        "dsl.parse_calls": per_pass("dsl.parse"),
        "expr.diff_ms": ms("expr.diff"),
        "expr.diff_calls": per_pass("expr.diff"),
        "expr.evaluate_ms": ms("expr.evaluate"),
        "expr.evaluate_calls": per_pass("expr.evaluate"),
        "jets.ms": ms("jets"),
        "jets.calls": per_pass("jets"),
        "jets.points": (c["jets.points"] / k, "count"),
        "jets.points_per_call": (c["jets.points"] / jets_calls if jets_calls else 0.0, "count"),
        "jets.factor_ms": ms("jets.factor"),
        "jets.factor_calls": per_pass("jets.factor"),
        "geometry.curvature_ms": ms("geometry.curvature"),
        "geometry.curvature_calls": per_pass("geometry.curvature"),
        "geometry.traces_ms": ms("geometry.traces"),
        "geometry.traces_calls": per_pass("geometry.traces"),
        "mixed.extremize_ms": ms("mixed.extremize"),
        "mixed.extremize_calls": per_pass("mixed.extremize"),
        "mixed.extremize_converged_share": (
            c["mixed.extremize_converged"] / extremize_calls if extremize_calls else 0.0,
            "share",
        ),
        "mixed.mc_ms": ms("mixed.mc"),
        "mixed.mc_samples": (c["mixed.mc_samples"] / k, "count"),
        "mixed.residual_ms": ms("mixed.residual"),
        "conformal.ms": ms("conformal"),
        "surfaces.ms": ms("surfaces"),
    }
    for crit in CRITERIA:
        m[f"checks.{crit}_s"] = (incl_s.get(f"checks.{crit}", 0.0) / k, "s")
    m["checks.self_ms"] = (1000 * sum(v for name, v in self_s.items() if name.startswith("checks.")) / k, "ms")
    m["report.dumps_ms"] = ms("report.dumps")
    m["report.bytes"] = (c["report.bytes"] / k, "bytes")
    m["catalog.sample_ms"] = ms("catalog.sample")
    m["cli.self_ms"] = ms("cli")
    m["trace.overhead_share"] = (overhead, "share")
    s_self, _, s_calls = tracing.self_times(setup_spans)
    m["setup.dsl.parse_ms"] = (1000 * s_self.get("dsl.parse", 0.0), "ms")
    m["setup.expr.diff_ms"] = (1000 * s_self.get("expr.diff", 0.0), "ms")
    m["setup.expr.diff_calls"] = (s_calls.get("expr.diff", 0), "count")
    m["setup.expr.evaluate_ms"] = (1000 * s_self.get("expr.evaluate", 0.0), "ms")
    m["setup.jets.ms"] = (1000 * s_self.get("jets", 0.0), "ms")
    return m


def roadmap_table(tracer, workload, passes: int):
    """Per-point jet, extremize and record times next to ROADMAP's table."""
    import tracing

    spans = tracer.spans
    top = tracing.top_ancestors(spans, "bench.call/")
    sums = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if top[i] >= 0 and (i == top[i] or name in ("jets", "mixed.extremize")):
            label = spans[top[i]][0].split("/", 1)[1]
            key = "call" if i == top[i] else name
            t = sums.setdefault(label, {"call": 0.0, "jets": 0.0, "mixed.extremize": 0.0, "pairs": 0})
            t[key] += end - start
            t["pairs"] += name == "mixed.extremize"
    points = {}
    for call in workload.calls:
        points[call.label] = points.get(call.label, 0) + call.records * passes
    for label, (jet_ms, ext_ms, rec_ms) in ROADMAP_PER_POINT_MS.items():
        if label not in sums:
            continue
        t, k = sums[label], points[label]
        print(
            f"per point, {label}: jet {1000 * t['jets'] / k:.2f} ms (ROADMAP {jet_ms}), "
            f"extremize {1000 * t['mixed.extremize'] / k:.2f} ms for {t['pairs'] / k:g} pair(s) "
            f"(ROADMAP {ext_ms}, one pair), "
            f"whole CLI call per record {1000 * t['call'] / k:.2f} ms (ROADMAP {rec_ms})"
        )


def measure_traced(workload, seconds: float):
    import setup_probe
    import tracing
    from speed import SpeedClock

    run = Run(workload)
    plain, traced = [], []
    with SpeedClock() as clock:
        tracer = tracing.Tracer(clock.now)
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                setup_probe.set_up(workload.setup_items)
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
        tracer.reset()
        start = perf_counter()
        pair_wall = 0.0
        while not traced or perf_counter() - start + pair_wall <= seconds:
            began = perf_counter()
            plain.append(sum(run.one_pass(clock.now)))
            tracer.install()
            try:
                traced.append(sum(run.one_pass(clock.now, tracer)))
            finally:
                tracer.uninstall()
            pair_wall = perf_counter() - began
    # neighbouring passes share the machine's speed, so compare them in pairs
    overhead = statistics.median((t - p) / p for p, t in zip(plain, traced))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; spans: {len(tracer.spans)}")
    roadmap_table(tracer, workload, len(traced))
    metrics = layer_metrics(tracer, len(traced), setup_spans, overhead)
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chernkit" / "__init__.py").is_file():
        print(f"error: no chernkit source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chernkit.checks  # noqa: F401  (workloads call these modules, looked up at call time)
    import chernkit.cli  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment()
    print("environment: " + json.dumps(env))
    if args.trace:
        run, metrics = measure_traced(workload, args.seconds)
    else:
        run, metrics = measure_end_to_end(workload, args.seconds)
    threads = process_threads()
    print(f"process threads at exit: {threads} (nproc {env['nproc']})")
    print(f"fail_share: {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"failure: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
