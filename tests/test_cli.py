"""Command-line interface: exit codes, JSON determinism, table output."""

import contextlib
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import report_reference

from chernkit import cli, conformal, report
from chernkit import expr as ex
from chernkit.catalog import builtin, names
from chernkit.checks import SUITES, run_checks
from chernkit.dsl import print_metric
from chernkit.geometry import chern_curvature, to_unitary_frame
from chernkit.jets import metric_jet


def _run(*args):
    cmd = [sys.executable, "-m", "chernkit.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


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
    # certified at n = 2 as at n >= 3: the Sym^2 bounds are met to round-off of the curvature's size
    jet = metric_jet(builtin("hopf-2").spec, np.array([complex(*z) for z in rec["point"]]))
    scale = max(1.0, np.max(np.abs(to_unitary_frame(chern_curvature(jet)).tensor)))
    assert abs(rec["mixed"][0]["bound_gap"]) <= 1e-13 * scale
    # also at n = 4, and on the generic n = 3 file metric, whose extrema take the ascent path
    for metric in ("fubini-study-4", "complex-hyperbolic-4", GENERIC_3):
        r1, r2 = (_run("eval", "--metric", metric, "--points", "4", "--alpha", "1", "--beta", "1") for _ in range(2))
        assert r1.returncode == 0 and r1.stdout == r2.stdout, metric
        assert len(json.loads(r1.stdout)["records"]) == 4


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


def test_conformal_flat_surface_extremizes_like_hopf():
    # e^{2F} flat with F = -log|z| is hopf-2; at this point and pair the
    # conformal metric's extremizer once stopped without converging
    args = ["--point=-0.2843658045823253-0.5243573351450618i,-0.02594733222948035-0.5106272358322559i",
            "--alpha=1.379", "--beta=1.338"]
    runs = [_run("eval", "--metric", *metric, *args) for metric in
            (["euclidean-2", "--conformal=-0.5*log(abs2(z))"], ["hopf-2"])]
    assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
    conformal, hopf = (json.loads(r.stdout)["records"][0]["mixed"][0] for r in runs)
    assert conformal["converged"] and hopf["converged"]
    for key in ("min", "max"):
        assert abs(conformal[key] - hopf[key]) <= 1e-9, key


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


def test_verify_all_passes_with_many_checks():
    r = _run("verify")
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr
    assert _run("verify").stdout == r.stdout  # byte-identical across processes, through stacked LAPACK calls
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
        assert row["restarts_used"] == 0  # no ascent start runs at n = 2
        assert row["path"] == "certified"


GENERIC_3 = str(Path(__file__).parent / "data" / "generic-3.metric")


def test_extremize_runs_the_ascent_beyond_surfaces(tmp_path):
    # on the generic file metric the Sym^2 bounds are not met, so the ascent decides
    out = tmp_path / "x.json"
    r = _run(
        "extremize", "--metric", GENERIC_3, "--alpha", "0", "--beta", "1",
        "--points", "1", "--seed", "3", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(out.read_text())["rows"]
    assert row["converged"] is True
    assert row["restarts_used"] == 28  # 3 axes + 9 bisectors + 16 random restarts
    assert row["bound_gap"] > 1e-3


def test_main_calls_in_one_process_match_fresh_processes():
    # the parser is built once per process: no --alpha/--beta list may carry over to the next call.  Every
    # argv runs twice, metrics interleaved, so the second round reads the g programs and array templates
    # the first round cached; each exit code, stdout and stderr must equal a fresh process's
    base = ["eval", "--metric", "hopf-2", "--point", "0.3+0.1i,-0.2i"]
    two_pairs = ["--alpha", "1", "--beta", "-2", "--alpha", "0.5", "--beta", "1"]
    argvs = [base + weights for weights in (two_pairs, ["--alpha", "0", "--beta", "1"], [])]
    argvs += [
        ["eval", "--metric", "hopf-2", "--point=0.3+0.1i,-0.2+0.4i", *_PAIRS],
        ["eval", "--metric", "fubini-study-4", "--points", "4", "--seed", "3"],
        ["eval", "--metric", "euclidean-2", "--point=0.5-0.25i,0.1+0i", "--conformal=-0.5*log(abs2(z))", *_PAIRS],
        ["eval", "--metric", "hopf-3", "--points", "2", "--seed", "5", *_PAIRS],
        ["eval", "--metric", GENERIC_3, "--points", "2", "--alpha", "1", "--beta", "1"],
        ["eval", "--metric", "hopf-2", "--point", "0,0", "--point", "1,0"],  # an error record, exit 2
        ["eval", "--metric", "hopf-2", "--point=0.3+0.1i,-0.2+0.4i", "--alpha", "1", "--beta", "-2"],
        ["eval", "--metric", "adm-product-surface", "--points", "3", *_PAIRS],
        ["extremize", "--metric", "hopf-3", "--points", "2", "--alpha", "1", "--beta", "1"],
        # fails at its second point: exit 2 and an error on stderr
        ["extremize", "--metric", "hopf-2", "--point", "0.3,0.1", "--point", "0,0", "--point", "0.5,0.2",
         "--point", "0.1,0.4"],
    ]
    warm = [[_main(*argv) for argv in argvs] for _ in range(2)]
    for argv, first, second in zip(argvs, *warm):
        fresh = _run(*argv)
        assert first == second == (fresh.returncode, fresh.stdout, fresh.stderr), argv


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
    # complex arrays are lists of [re, im] pairs
    assert json.loads(report.dumps(np.array([1 + 2j]))) == [[1.0, 2.0]]
    assert json.loads(report.dumps(np.array([1j]))) == [[0, 1]]


def _documents(monkeypatch, *argv):
    """The documents one cli.main call hands to report.dumps."""
    docs, dumps = [], report.dumps
    monkeypatch.setattr(report, "dumps", lambda doc: docs.append(doc) or dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(argv))
    monkeypatch.undo()
    return docs


_PAIRS = ("--alpha", "1", "--beta", "1", "--alpha", "0", "--beta", "1")
_DOCUMENTS = {
    "eval-n1": ("eval", "--metric", "fubini-study-1", "--points", "2", *_PAIRS),
    "eval-n2": ("eval", "--metric", "hopf-2", "--points", "3", *_PAIRS),
    "eval-n3": ("eval", "--metric", GENERIC_3, "--points", "2", *_PAIRS),
    "eval-n4": ("eval", "--metric", "complex-hyperbolic-4", "--points", "2", *_PAIRS),
    "eval-error-record": ("eval", "--metric", "hopf-2", "--point", "0,0", "--point", "1,0"),
    "eval-conformal": ("eval", "--metric", "euclidean-2", "--point", "1+0i,0.5-0.25i",
                       "--conformal=-0.5*log(abs2(z))", *_PAIRS),
}


@pytest.mark.parametrize("case", sorted(_DOCUMENTS))
def test_report_dumps_matches_the_list_writer(monkeypatch, case):
    (doc,) = _documents(monkeypatch, *_DOCUMENTS[case])
    assert isinstance(doc["records"][-1]["point"], np.ndarray)  # records keep their arrays
    text = report.dumps(doc)
    assert text == report_reference.dumps(report_reference.list_form(doc))
    json.loads(text)  # every written report parses as JSON


def test_report_dumps_matches_the_list_writer_on_extremize_and_edge_arrays(monkeypatch, tmp_path):
    (doc,) = _documents(monkeypatch, "extremize", "--metric", "hopf-3", "--points", "2", *_PAIRS,
                        "--out", str(tmp_path / "x.json"))
    edges = {"empty": np.array([]), "empty-complex": np.zeros(0, complex), "rows": np.zeros((2, 0), complex),
             "zero-d": np.array(1 / 3), "zero-d-complex": np.array(-0.0 + 1e-300j),
             "real-matrix": np.array([[1.5, -np.inf], [np.nan, 2e-310]])}
    for obj in (doc, edges):
        assert report.dumps(obj) == report_reference.dumps(report_reference.list_form(obj))


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


@pytest.mark.parametrize("command", ["eval", "extremize"])
@pytest.mark.parametrize("point", ["nan,1", "1e999,1"])
def test_non_finite_point_coordinates_are_input_errors(command, point):
    r = _run(command, "--metric", "hopf-2", "--point", point)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"error: point {point!r} has a coordinate that is not finite\n"


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


@pytest.mark.parametrize("case", ["eval-out", "extremize-out", "metric-directory"])
def test_file_errors_exit_2(tmp_path, case):
    missing = str(tmp_path / "missing" / "r.json")
    argv = {
        "eval-out": ["eval", "--metric", "hopf-2", "--points", "1", "--out", missing],
        "extremize-out": ["extremize", "--metric", "hopf-2", "--points", "1", "--out", missing],
        "metric-directory": ["eval", "--metric", str(tmp_path), "--points", "1"],
    }[case]
    r = _run(*argv)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["eval", "extremize"])
def test_overflowing_weights_are_errors(command):
    for metric in ("hopf-2", "hopf-3"):  # the certified path at n = 2 and at n = 3
        r = _run(command, "--metric", metric, "--points", "1", "--alpha=1e308", "--beta=1e308")
        assert r.returncode == 2, r.stdout + r.stderr
        assert "RuntimeWarning" not in r.stderr and "Traceback" not in r.stderr
        assert "not finite" in r.stdout + r.stderr and "alpha=1e+308" in r.stdout + r.stderr
        if command == "eval":
            (rec,) = json.loads(r.stdout)["records"]  # valid JSON: no bare inf
            assert "error" in rec


def _eval_records(*args):
    r = _run("eval", *args)
    return r.returncode, json.loads(r.stdout)["records"]


def test_eval_failed_point_gets_its_own_record():
    # hopf-2 divides by |z|^2: the origin fails, (1, 0) evaluates as if it were alone
    code, records = _eval_records("--metric", "hopf-2", "--point", "0,0", "--point", "1,0")
    assert code == 2
    assert records[0] == {"point": [[0.0, 0.0], [0.0, 0.0]], "error": "division by zero"}
    alone_code, alone = _eval_records("--metric", "hopf-2", "--point", "1,0")
    assert alone_code == 0 and records[1] == alone[0]


def test_eval_point_rejected_by_a_kernel_gets_its_own_record(tmp_path):
    # g is Hermitian where z1*z2 is real, but its derivatives are not: u is not real at 0.3+0.3i,0.3-0.3i;
    # at 0.5,0.5i z1*z2 is not real, so g is not Hermitian and the point fails the jets checks
    metric = tmp_path / "skew.metric"
    metric.write_text("dim 2\ng[1,1] = 1 + z1*zbar1\ng[2,2] = 1\ng[1,2] = z1*z2\ng[2,1] = z1*z2\n")
    alone = {}
    for p in ["0.3,0", "0.5,0.5i", "0.3+0.3i,0.3-0.3i", "0.5i,0.5i"]:
        code, (alone[p],) = _eval_records("--metric", str(metric), "--point", p)
        assert code == (2 if "error" in alone[p] else 0)
    assert "not Hermitian" in alone["0.5,0.5i"]["error"] and "should be real" in alone["0.3+0.3i,0.3-0.3i"]["error"]
    assert sum("error" in r for r in alone.values()) == 2
    # a kernel failure alone, then with a jets failure in the same batch: each record is the point's own
    for points in (["0.3,0", "0.3+0.3i,0.3-0.3i", "0.5i,0.5i"], list(alone)):
        code, records = _eval_records("--metric", str(metric), *(a for p in points for a in ("--point", p)))
        assert code == 2 and records == [alone[p] for p in points], points


@pytest.mark.parametrize("command", ["eval", "extremize"])
def test_a_passing_batch_is_one_jets_call_and_one_kernel_pass(monkeypatch, command):
    calls = {"metric_jets": 0, "_jets": 0, "chern_curvature": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    code, out, err = _main(command, "--metric", "hopf-2", "--points", "4", "--alpha", "1", "--beta", "1")
    assert (code, err) == (0, "")
    assert calls == {"metric_jets": 1, "_jets": 0, "chern_curvature": 1}


@pytest.mark.parametrize("domain", ["ball 1e999", "annulus 1 1e999", "polydisc 0"])
def test_eval_bad_domain_radius_exit_code(tmp_path, domain):
    metric = tmp_path / "wide.metric"
    metric.write_text(f"dim 2\ng[1,1] = 1\ng[2,2] = 1\ndomain {domain}\n")
    r = _run("eval", "--metric", str(metric), "--points", "2")
    assert r.returncode == 2, r.stderr
    # a literal that float reads as inf is rejected by the tokenizer, before the domain sees it
    why = "number literal '1e999' is not finite" if "1e999" in domain else "radius must be positive"
    assert "line 4" in r.stderr and why in r.stderr
    assert "Traceback" not in r.stderr


def test_eval_on_a_domain_too_thin_to_sample_exits_2(tmp_path):
    metric = tmp_path / "thin.metric"
    metric.write_text("dim 1\ng[1,1] = 1\ndomain annulus 1 1.000000000001\n")
    r = _run("eval", "--metric", str(metric), "--points", "3")
    assert r.returncode == 2 and r.stdout == ""
    assert "Annulus(r_inner=1.0, r_outer=1.000000000001) in n=1: 0 of 3" in r.stderr and "--point" in r.stderr
    assert "Traceback" not in r.stderr


_CATALOG_DIR = Path(cli.__file__).parent / "metrics"
_SKEW = "dim 2\ng[1,1] = 1 + z1*zbar1\ng[2,2] = 1\ng[1,2] = z1*z2\ng[2,1] = z1*z2\n"


def _scaled_records(tmp_path, text, s, point):
    """(exit code, records) of an in-process `eval --point` on the metric text with every g[i,j] scaled by s."""
    metric = tmp_path / f"scaled-{s}.metric"
    metric.write_text(re.sub(r"^(g\[\d,\d\]) = (.*)$", rf"\1 = {s}*(\2)", text, flags=re.M))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["eval", "--metric", str(metric), "--point", point])
    return code, json.loads(out.getvalue())["records"]


@pytest.mark.parametrize(
    "name, point",
    [("adm-product-surface", "0.3+0.1i,0.5"), ("hopf-2", "0.7+0.1i,0.5"), ("fubini-study-3", "0.3,0.1i,0.2")],
)
def test_eval_scales_with_the_metric(tmp_path, name, point):
    # g -> s g scales u, v and |eta|^2 by 1/s; u and v are checked against the curvature's terms, with
    # no floor, so the Kahler adm-product-surface (u = 0, round-off of size eps |R|) evaluates at every s
    text = (_CATALOG_DIR / f"{name}.metric").read_text()
    code, (ref,) = _scaled_records(tmp_path, text, "1", point)
    assert code == 0
    size = max(abs(ref["u"]), abs(ref["v"]), np.max(np.abs(ref["ricci"]["rho1"])))
    for s in ("1e-150", "1e-100", "1e100"):
        code, (rec,) = _scaled_records(tmp_path, text, s, point)
        assert code == 0, (s, rec)
        for key in ("u", "v", "eta_norm2"):
            assert abs(rec[key] * float(s) - ref[key]) <= 1e-12 * size, (s, key)


@pytest.mark.parametrize("s", ["1", "1e-100"])
def test_skew_metric_is_rejected_at_every_scale(tmp_path, s):
    code, (rec,) = _scaled_records(tmp_path, _SKEW, s, "0.3+0.3i,0.3-0.3i")
    assert code == 2 and "should be real" in rec["error"]


def _main(*argv):
    """(exit code, stdout, stderr) of an in-process cli.main, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "entry, at",
    [
        ("1 + abs2(z)*((1e200)^2)", "^"),  # the power's constant fold overflows
        ("abs2(z)^1e400", "1e400"),  # a literal that float reads as inf
        ("1 + exp(1000)*abs2(z)", "exp"),
        ("1 + abs2(z)/0", "/"),
        ("1 + log(0)*abs2(z)", "log"),
        ("1 + 1e200*1e200*abs2(z)", "*"),
        ("1 + 1e400*abs2(z)", "1e400"),
        # a bad literal, a stray character, a non-decimal numeral and a coordinate index longer than int
        # reads are errors where they stand
        ("1.2.3", "1.2.3"),
        ("1 $ 2", "$"),
        ("1 + z²*zbar1", "z²"),
        pytest.param("1 + z" + "1" * 5000 + "*zbar1", "z1", id="5000-digit-coordinate-index"),
    ],
)
def test_a_bad_constant_is_an_error_at_its_operator(tmp_path, entry, at):
    metric = tmp_path / "bad.metric"
    metric.write_text(f"dim 1\ng[1,1] = {entry}\n")
    col = len("g[1,1] = ") + 1 + entry.index(at)
    code, out, err = _main("eval", "--metric", str(metric), "--points", "1")
    assert (code, out) == (2, "") and err.startswith(f"error: line 2, col {col}: ") and err.count("\n") == 1, err


try:
    complex("a")
except ValueError as err:
    _COMPLEX_REASON = str(err)  # Python's own reason, which the CLI passes on


@pytest.mark.parametrize(
    "argv, message",
    [
        ("eval --metric nope", "error: 'nope' is neither a catalog metric nor a readable file (see `chernkit catalog list`)"),
        ("eval --metric hopf-2 --point 1,2,3", "error: point '1,2,3' has 3 coordinates, expected 2"),
        ("eval --metric hopf-2 --point a,b", f"error: bad point 'a,b': {_COMPLEX_REASON}"),
        ("eval --metric hopf-2 --point nan,0", "error: point 'nan,0' has a coordinate that is not finite"),
        ("eval --metric hopf-2 --points 0", "error: need at least one point"),
        ("eval --metric hopf-2 --alpha 1", "error: --alpha and --beta must be given the same number of times"),
        ("extremize --metric hopf-2 --alpha 0 --beta 0", "error: alpha and beta must not both be zero"),
        ("eval --metric euclidean-2 --conformal z²", "error: line 1, col 1: unknown identifier 'z²'"),
    ],
)
def test_a_bad_input_is_one_error_line_and_exit_2(argv, message):
    assert _main(*argv.split()) == (2, "", message + "\n")


def test_a_bad_constant_in_a_conformal_factor_is_an_error_at_its_operator():
    code, out, err = _main("eval", "--metric", "euclidean-1", "--points", "1", "--conformal", "(1e200)^2")
    assert (code, out, err) == (2, "", "error: line 1, col 8: constant overflows\n")


def test_a_constant_that_underflows_folds_to_zero():
    code, out, _ = _main("eval", "--metric", "euclidean-1", "--points", "1", "--conformal", "exp(-1000)*abs2(z)")
    assert code == 0 and json.loads(out)["records"][0]["u"] == 0


def test_a_nearly_singular_metric_is_an_error_without_warnings(tmp_path):
    # min eigenvalue about 1e-300 |z1|: the unitary frame is about 1e150, and the curvature overflows in it
    metric = tmp_path / "singular.metric"
    metric.write_text("dim 2\ng[1,1] = 1e-300*zbar1\ng[1,2] = 2.5e-300\ng[2,1] = 2.5e-300\ng[2,2] = 1 + abs2(z1)\n")
    argv = ["--metric", str(metric), "--points", "2", "--seed", "0", "--alpha", "1", "--beta", "1"]
    code, out, err = _main("eval", *argv)
    first, second = json.loads(out)["records"]
    assert (code, err) == (2, "") and "error" not in first  # the first point evaluates
    assert second["error"] == "curvature is not finite in the unitary frame"
    at = cli._point_text([complex(*z) for z in second["point"]])  # extremize names the point, as eval does
    assert _main("extremize", *argv) == (2, "", f"error: at point {at}: curvature is not finite in the unitary frame\n")


def test_a_subnormal_curvature_evaluates_without_warnings(tmp_path):
    # the curvature is about 1e-320: the extremizer scales it up by 2^1062, more than a float weight can carry
    metric = tmp_path / "subnormal.metric"
    metric.write_text(
        "dim 2\ng[1,1] = 1 + abs2((1) * (1))\ng[1,2] = (conj(abs2(z))) * (1e-320)\n"
        "g[2,1] = (abs2(z)) * (1e-320)\ng[2,2] = 1 + abs2((1) * (1))\n"
    )
    for command in ("eval", "extremize"):
        code, _, err = _main(command, "--metric", str(metric), "--points", "2")
        assert (code, err) == (0, ""), command


def test_metrics_at_the_ends_of_the_float_range_warn_nothing(tmp_path):
    big, tiny = tmp_path / "big.metric", tmp_path / "tiny.metric"
    big.write_text("dim 1\ng[1,1] = ((z1) / (z1)) + (1e308)\n")  # g + g^H overflows; (g + g^H)/2 need not
    tiny.write_text("dim 1\ng[1,1] = 1e-310 + 1e-310*abs2(z)\n")  # g^-1 is past the float range
    for command in ("eval", "extremize"):
        assert _main(command, "--metric", str(big), "--points", "2")[::2] == (0, ""), command
    code, out, err = _main("eval", "--metric", str(tiny), "--points", "2")
    records = json.loads(out)["records"]
    points = [np.array([complex(*z) for z in r["point"]]) for r in records]
    assert (code, err) == (2, "")
    assert [r["error"] for r in records] == [f"inverse metric is not finite at {p}" for p in points]
    at = cli._point_text(points[0])  # extremize names the first point
    assert _main("extremize", "--metric", str(tiny), "--points", "2") == (
        2, "", f"error: at point {at}: inverse metric is not finite at {points[0]}\n"
    )
    # subnormal weights: the extrema are finite, and both commands print them
    code, out, err = _main("extremize", "--metric", "hopf-2", "--alpha", "0", "--beta", "1e-310", "--points", "2")
    values = [float(x) for line in out.splitlines()[1:] for x in line.split()[-4:-1]]  # min, max, spread
    assert (code, err, len(values)) == (0, "", 6) and np.all(np.isfinite(values)) and max(values) > 0, out
    code, out, err = _main("eval", "--metric", "fubini-study-2", "--alpha", "1e-315", "--beta", "0", "--points", "2")
    mixed = [m for rec in json.loads(out)["records"] for m in rec["mixed"]]
    assert (code, err, len(mixed)) == (0, "", 2) and np.all(np.isfinite([(m["min"], m["max"]) for m in mixed]))


def test_a_metric_with_huge_derivatives_evaluates_without_warnings(tmp_path):
    # max|g^-1| max|dg| max|dbar g| is about 1e400: the curvature's size overflows to inf, quietly
    metric = tmp_path / "steep.metric"
    metric.write_text("dim 2\ng[1,1] = 1 + abs2(z1)\ng[2,2] = 1e200*abs2(z)\n")
    for command in ("eval", "extremize"):
        code, _, err = _main(command, "--metric", str(metric), "--points", "2", "--alpha", "1", "--beta", "1")
        assert (code, err) == (0, ""), command


@pytest.mark.parametrize(
    "text, point",
    [
        # max|ddbar g| is 1.7e308, and so is max|g^-1| max|dg| max|dbar g|: their sum, the curvature's size, is inf
        ("dim 2\ng[1,1] = 1 + 1.7e308*z1*zbar1\ng[2,2] = 1 + 1.7e308*z1*zbar1\n", "0.1,0.2"),
        # 1e-12 max|g| max|g^-1|, the inverse metric's tolerance, is about 1e456: it bounds nothing
        ("dim 2\ng[1,1] = 1e-160\ng[2,2] = 1.7e+308\n", "0.3,0.1-0.2i"),
    ],
    ids=["curvature-size", "inverse-tolerance"],
)
def test_a_metric_whose_sizes_overflow_evaluates_without_warnings(tmp_path, text, point):
    metric = tmp_path / "steep.metric"
    metric.write_text(text)
    for command in ("eval", "extremize"):
        code, _, err = _main(command, "--metric", str(metric), f"--point={point}", "--alpha", "1", "--beta", "1")
        assert (code, err) == (0, ""), command


GENERIC_2 = str(Path(__file__).parent / "data" / "generic-2.metric")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite", "core", "--tol", "nan"], "--tol"),
        (["verify", "--suite", "core", "--tol", "-1"], "--tol"),
        (["verify", "--suite", "core", "--tol", "inf"], "--tol"),
        (["eval", "--metric", "hopf-2", "--seed", "-1"], "--seed"),
        (["extremize", "--metric", "hopf-2", "--seed", "-1"], "--seed"),
    ],
)
def test_bad_tol_and_seed_are_input_errors(argv, flag):
    # exit 2 with one line naming the flag, not 31 FAIL lines and exit 1, nor numpy's bare message
    code, out, err = _main(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + flag) and err.count("\n") == 1, err


def test_extremize_names_the_point_that_failed():
    # the first failing point in point order, whichever stage rejects it: with weights of 1e308, (1, 0)
    # fails in the extremizer, and (0, 0) fails the jets checks
    big, div0 = ["--alpha=1e308", "--beta=1e308"], "division by zero"
    inf = "mixed curvature extrema not finite for alpha=1e+308, beta=1e+308"
    for argv, point, why in [
        (["--point=0.5,0.25i", "--point=0,0"], "0.0+0.0i,0.0+0.0i", div0),
        ([*big, "--point", "1,0", "--point", "0,0"], "1.0+0.0i,0.0+0.0i", inf),
        ([*big, "--point", "0,0", "--point", "1,0"], "0.0+0.0i,0.0+0.0i", div0),
    ]:
        code, out, err = _main("extremize", "--metric", "hopf-2", *argv)
        assert (code, out, err) == (2, "", f"error: at point {point}: {why}\n"), argv


def test_eval_and_extremize_give_the_same_mixed_rows(tmp_path):
    # both commands make one stacked extremizer call over every point and pair: each (point, pair) row of
    # extremize --out equals eval's, field for field, on the certified, exact and ascent paths
    for metric, path in [("hopf-3", "certified"), (GENERIC_2, "exact"), (GENERIC_3, "ascent")]:
        argv = ["--metric", metric, "--points", "3", "--seed", "5", *_PAIRS, "--alpha", "-0.7", "--beta", "0.3"]
        code, out, err = _main("eval", *argv)
        assert (code, err) == (0, ""), metric
        evaled = [{"point": rec["point"], **row} for rec in json.loads(out)["records"] for row in rec["mixed"]]
        assert _main("extremize", *argv, "--out", str(tmp_path / "x.json"))[::2] == (0, ""), metric
        rows = json.loads((tmp_path / "x.json").read_text())["rows"]
        assert len(rows) == 9 and rows == evaled, metric
        assert {row["path"] for row in rows} == {path}, metric


def test_extremize_stops_at_the_first_failing_point(monkeypatch):
    # (0, 0) fails the jets checks: only the point before it reaches the stacked extremizer call
    calls, extrema = [], cli._extrema
    monkeypatch.setattr(cli, "_extrema", lambda Ru, pairs: calls.extend(Ru) or extrema(Ru, pairs))
    points = ["--point", "0.3,0.1", "--point", "0,0", "--point", "0.5,0.2", "--point", "0.1,0.4"]
    code, out, err = _main("extremize", "--metric", "hopf-2", *points)
    assert (code, out, err) == (2, "", "error: at point 0.0+0.0i,0.0+0.0i: division by zero\n")
    assert len(calls) == 1


@pytest.mark.parametrize("metric", names())
def test_an_eval_record_is_the_same_in_a_batch_and_alone(metric):
    # each point's numbers are its own: a record of a 20-point batch is byte for byte that point's --point record
    code, out, err = _main("eval", "--metric", metric, "--points", "20", "--seed", "11", *_PAIRS)
    assert (code, err) == (0, "")
    for rec in json.loads(out)["records"]:
        point = cli._point_text(np.array([complex(*z) for z in rec["point"]]))
        code, out, err = _main("eval", "--metric", metric, f"--point={point}", *_PAIRS)
        assert (code, err) == (0, "")
        (alone,) = json.loads(out)["records"]
        assert json.dumps(rec) == json.dumps(alone), point


@pytest.mark.parametrize(
    "metric, path", [("hopf-2", "certified"), ("hopf-3", "certified"), (GENERIC_2, "exact"), (GENERIC_3, "ascent")]
)
def test_every_mixed_row_names_its_path(tmp_path, metric, path):
    argv = ["--metric", metric, "--points", "2", "--alpha", "1", "--beta", "1", "--out", str(tmp_path / "x.json")]
    assert _main("extremize", *argv)[0] == 0
    rows = json.loads((tmp_path / "x.json").read_text())["rows"]
    assert _main("eval", *argv)[0] == 0
    rows += [row for rec in json.loads((tmp_path / "x.json").read_text())["records"] for row in rec["mixed"]]
    assert len(rows) == 4 and all(row["path"] == path for row in rows)
    assert all(list(row)[-1] == "path" for row in rows)  # an additive key, after bound_gap


def _compiles(monkeypatch) -> list:
    """One entry for each expr.compile_program call from now on."""
    compiled, compile_program = [], ex.compile_program
    monkeypatch.setattr(ex, "compile_program", lambda roots: compiled.append(1) or compile_program(roots))
    return compiled


def test_conformal_calls_in_one_process_compile_one_program(monkeypatch):
    # the factor text on its base metric names one spec per process, and the spec compiles once
    compiled = _compiles(monkeypatch)
    conformal._conformal_spec.cache_clear()  # an earlier test may have built this spec already
    argv = ["eval", "--metric", "hopf-2", "--conformal", "0.05*z1*zbar1 - 0.01", "--point=0.3+0.1i,0.2-0.4i", *_PAIRS]
    outputs = [_main(*argv) for _ in range(3)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]
    assert len(compiled) == 1


def test_metric_file_calls_in_one_process_compile_one_program(monkeypatch):
    compiled = _compiles(monkeypatch)
    cli._metric_file.cache_clear()  # an earlier test may have run this file already
    outputs = [_main("eval", "--metric", GENERIC_2, "--points", "2", *_PAIRS) for _ in range(3)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]
    assert len(compiled) == 1


def test_an_edited_metric_file_takes_effect_in_the_same_process(tmp_path):
    metric = tmp_path / "edited.metric"
    argv = ["eval", "--metric", str(metric), "--point=0.3+0.1i", "--alpha", "1", "--beta", "1"]
    texts = ["dim 1\ng[1,1] = 1 + z1*zbar1\n", "dim 1\ng[1,1] = 2 + z1*zbar1\n"]
    outputs = []
    for text in texts + texts[:1]:
        metric.write_text(text)
        outputs.append(_main(*argv))
    assert all(code == 0 for code, _, _ in outputs)
    assert outputs[0] != outputs[1] and outputs[0] == outputs[2]
    assert abs(json.loads(outputs[1][1])["records"][0]["g_eigenvalues"][0] - 2.1) < 1e-12


def test_one_factor_text_on_two_base_metrics_gives_two_specs():
    text = "0.05*z1*zbar1"
    flat, hopf = (builtin(name).spec for name in ("euclidean-2", "hopf-2"))
    on_flat, on_hopf = conformal._conformal_spec(flat, text), conformal._conformal_spec(hopf, text)
    assert on_flat is not on_hopf and on_flat.program is not on_hopf.program
    assert conformal._conformal_spec(flat, text) is on_flat  # and each base metric keeps its own
    assert print_metric(on_flat) != print_metric(on_hopf)
    point = "--point=0.3+0.1i,0.2-0.4i"
    outputs = {_main("eval", "--metric", name, "--conformal", text, point) for name in ("euclidean-2", "hopf-2")}
    assert len(outputs) == 2


def test_a_bad_conformal_text_exits_2_on_every_call():
    argv = ["eval", "--metric", "hopf-2", "--points", "1", "--conformal", "0.05*z1*"]
    first, second = _main(*argv), _main(*argv)
    assert first == second and first[:2] == (2, "") and first[2].startswith("error: line 1, col 9")
