"""Command-line interface: exit codes, JSON determinism, table output."""

import json
import subprocess
import sys

import numpy as np
import pytest

from chernkit import report
from chernkit.checks import SUITES, run_checks


def _run(*args, env=None):
    cmd = [sys.executable, "-m", "chernkit.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_eval_json_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["eval", "--metric", "hopf-2", "--points", "3", "--seed", "7",
            "--alpha", "1", "--beta", "-2"]
    r1 = _run(*args, "--out", str(out1))
    r2 = _run(*args, "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == 1
    assert len(doc["records"]) == 3
    rec = doc["records"][0]
    assert abs(rec["u"] - 2.0) < 1e-10
    assert abs(rec["v"] - 1.0) < 1e-10
    assert abs(rec["eta_norm2"] - 1.0) < 1e-10
    assert rec["mixed"][0]["spread"] < 1e-8  # C_{1,-2} is constant 0 on hopf


def test_eval_explicit_point_and_conformal(tmp_path):
    out = tmp_path / "r.json"
    r = _run(
        "eval", "--metric", "euclidean-2", "--point", "1+0i,0",
        "--conformal=-0.5*log(abs2(z))", "--alpha", "1", "--beta", "-2",
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    # e^{2F} flat = hopf: u = 2, v = 1 at (1, 0)
    assert abs(doc["records"][0]["u"] - 2.0) < 1e-10
    assert abs(doc["records"][0]["v"] - 1.0) < 1e-10


def test_eval_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.metric"
    bad.write_text("dim 2\ng[1,1]=\n")
    r = _run("eval", "--metric", str(bad), "--points", "1")
    assert r.returncode == 2
    assert "line 2" in r.stderr


def test_eval_unknown_metric_exit_code():
    r = _run("eval", "--metric", "not-a-metric", "--points", "1")
    assert r.returncode == 2


def test_eval_file_metric(tmp_path):
    src = tmp_path / "flat.metric"
    src.write_text("dim 2\ng[1,1]=1\ng[2,2]=1\ndomain ball 1\n")
    r = _run("eval", "--metric", str(src), "--points", "2", "--seed", "1")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["records"][0]["u"] == 0


def test_eval_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["eval", "--metric", "fubini-study-2", "--points", "4", "--seed", "3"]
    assert _run(*args, "--out", str(a)).returncode == 0
    assert _run(*args, "--parallel", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_passes_with_many_checks():
    r = _run("verify")
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr
    lines = [l for l in r.stdout.splitlines() if l.startswith("PASS")]
    assert len(lines) >= 60
    assert "FAIL" not in r.stdout


def test_verify_surface_suite_passes_and_filters():
    r = _run("verify", "--suite", "surface")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [l for l in r.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all("surface-identities/" in l for l in lines)


def test_verify_tolerance_override_fails():
    r = _run("verify", "--suite", "surface", "--tol", "1e-30")
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_verify_env_tolerance(tmp_path):
    import os

    env = dict(os.environ, CHERNKIT_TOL="1e-30")
    r = _run("verify", "--suite", "surface", env=env)
    assert r.returncode == 1


def test_verify_rejects_unknown_suite():
    r = _run("verify", "--suite", "everything")
    assert r.returncode == 2


def test_extremize_table_and_json(tmp_path):
    out = tmp_path / "x.json"
    r = _run(
        "extremize", "--metric", "hopf-2", "--alpha", "0", "--beta", "1",
        "--points", "2", "--seed", "3", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert "spread" in r.stdout
    doc = json.loads(out.read_text())
    for row in doc["rows"]:
        assert row["spread"] > 1e-2  # H is not constant on the hopf surface
        assert row["converged"] is True


def test_catalog_list():
    r = _run("catalog", "list")
    assert r.returncode == 0
    for name in ("hopf-2", "fubini-study-4", "adm-product-surface"):
        assert name in r.stdout


def test_run_checks_counts_and_suites():
    outs = run_checks("surface")
    assert all(o.passed == (o.residual <= o.tolerance) for o in outs)
    assert {o.check_id.split("/")[0] for o in outs} == {"surface-identities"}
    assert set(SUITES) == {"all", "core", "mixed", "conformal", "surface", "catalog"}
    with pytest.raises(ValueError, match="unknown suite"):
        run_checks("bogus")


def test_report_dumps_17_digits():
    text = report.dumps({"x": 1 / 3, "z": [1.0, 2], "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1 / 3, "z": [1.0, 2], "flag": True, "none": None}
    # complex helpers
    assert report.complex_pair(1 + 2j) == [1.0, 2.0]
    assert report.point_json(np.array([1j])) == [[0.0, 1.0]]


def test_eval_non_finite_metric_is_an_error_record(tmp_path):
    # exp(800 |z|^2) overflows at |z| = 0.95: the record must say so, not print nan
    metric = tmp_path / "overflow.metric"
    metric.write_text("dim 1\ng[1,1] = exp(800*z1*zbar1)\n")
    out = tmp_path / "r.json"
    r = _run("eval", "--metric", str(metric), "--point=0.95+0i", "--out", str(out))
    assert r.returncode == 2, r.stderr
    text = out.read_text()
    assert "nan" not in text.lower() and "inf" not in text.lower()
    (rec,) = json.loads(text)["records"]
    assert "not finite" in rec["error"] and "0.95" in rec["error"]


@pytest.mark.parametrize("command", ["eval", "extremize"])
@pytest.mark.parametrize("weights", [("nan", "1"), ("inf", "1"), ("1", "-inf")])
def test_non_finite_weights_are_input_errors(command, weights):
    alpha, beta = weights
    r = _run(command, "--metric", "hopf-2", "--points", "1", f"--alpha={alpha}", f"--beta={beta}")
    assert r.returncode == 2, r.stdout
    assert "must be finite" in r.stderr
    assert r.stdout == ""


def test_eval_scaled_metric_is_accepted(tmp_path):
    from chernkit import expr as ex
    from chernkit.catalog import builtin
    from chernkit.dsl import MetricSpec, print_metric

    spec = builtin("fubini-study-2").spec
    entries = [[ex.mul(ex.const(1e12), e) for e in row] for row in spec.entries]
    metric = tmp_path / "scaled.metric"
    metric.write_text(print_metric(MetricSpec(n=2, entries=entries, domain=spec.domain)))
    outs = {}
    for name, source in (("base", "fubini-study-2"), ("scaled", str(metric))):
        outs[name] = tmp_path / f"{name}.json"
        r = _run("eval", "--metric", source, "--points", "3", "--seed", "4", "--out", str(outs[name]))
        assert r.returncode == 0, r.stderr
    base, scaled = (json.loads(outs[k].read_text())["records"] for k in ("base", "scaled"))
    for b, s in zip(base, scaled):
        assert np.allclose(s["g_eigenvalues"], 1e12 * np.array(b["g_eigenvalues"]), rtol=1e-12, atol=0)


def test_eval_too_deep_expression_exit_code(tmp_path):
    metric = tmp_path / "deep.metric"
    metric.write_text("dim 1\ng[1,1] = " + " + ".join(["z1*zbar1"] * 1500) + "\n")
    r = _run("eval", "--metric", str(metric), "--points", "1")
    assert r.returncode == 2
    assert "line 2" in r.stderr and "nested deeper" in r.stderr
    assert "Traceback" not in r.stderr
