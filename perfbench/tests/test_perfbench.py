"""Smoke test of the benchmark harness at tiny input sizes."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import chernkit.checks  # noqa: E402
import chernkit.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(monkeypatch):
    real_checks = chernkit.checks.run_checks
    monkeypatch.setattr(chernkit.checks, "run_checks", lambda suite: real_checks("surface"))
    monkeypatch.setitem(
        workloads.WORKLOADS,
        "eval-batch-highdim",
        lambda seed: workloads.eval_batch_highdim(seed, points=1, metrics=("fubini-study-2",)),
    )
    monkeypatch.setitem(
        workloads.WORKLOADS,
        "eval-interactive-surfaces",
        lambda seed: workloads.eval_interactive_surfaces(seed, per_metric=1),
    )
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 2)


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_runs_report_every_metric_and_pass_their_checks(monkeypatch, workload):
    _tiny(monkeypatch)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(result["metrics"][m]["value"] > 0 for m in ("jets.calls", "mixed.extremize_calls") if workload != "verify-battery")


def test_inputs_follow_the_seed():
    a, b, c = (workloads.eval_interactive_surfaces(s, per_metric=2) for s in (5, 5, 6))
    assert [k.argv for k in a.calls] == [k.argv for k in b.calls]
    assert [k.argv for k in a.calls] != [k.argv for k in c.calls]
    assert all(arg.startswith("--point=") for k in a.calls for arg in k.argv if "point" in arg)


def test_outputs_are_checked_against_references_and_the_first_pass():
    wl = workloads.eval_interactive_surfaces(1, per_metric=1)
    call = wl.calls[0]
    _, output = wl.run_call(call, lambda: 0.0)
    assert wl.check(call, output) == (1, 0, None)
    code, text, err = output
    doc = json.loads(text)
    doc["records"][0]["u"] += 1e-6
    changed = (code, json.dumps(doc), err)
    assert wl.check(call, changed)[:2] == (1, 1)  # differs from the first pass
    fresh = workloads.eval_interactive_surfaces(1, per_metric=1)
    assert "u = " in fresh.check(call, changed)[2]  # differs from the catalog


def test_tracer_restores_every_binding_and_derives_self_times():
    original = chernkit.cli.metric_jet, chernkit.jets.metric_jets, dict(chernkit.checks.CRITERIA)
    clock = iter(range(1000))
    tracer = tracing.Tracer(lambda: float(next(clock)))
    tracer.install()
    try:
        assert chernkit.jets.metric_jets is not original[1]
        entry = chernkit.builtin("hopf-2")
        jet = chernkit.cli.metric_jet(entry.spec, [0.5 + 0.1j, 0.3j])
        chernkit.geometry.to_unitary_frame(chernkit.geometry.chern_curvature(jet), jet)
    finally:
        tracer.uninstall()
    assert (chernkit.cli.metric_jet, chernkit.jets.metric_jets, chernkit.checks.CRITERIA) == original
    names = [s[0] for s in tracer.spans]
    assert names.count("jets") == 1 and "expr.evaluate" in names and "geometry.curvature" in names
    self_s, incl_s, calls = tracing.self_times(tracer.spans)
    assert calls["geometry.curvature"] == 3  # to_unitary_frame calls orthonormal_frame
    assert sum(self_s.values()) == pytest.approx(sum(e - s for _, s, e, p in tracer.spans if p < 0))
    assert tracer.counters["jets.points"] == 1


def test_clock_scales_wall_time_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        start = clock.now()
        speed.probe()
        assert clock.now() > start
    assert clock.scaled > 0 and clock.wall > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_refuses_to_run_without_the_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "verify-battery", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
