"""Metric jets against finite-difference oracles and hand-derived values."""

import contextlib
import dataclasses
import io
import re

import numpy as np
import pytest

from chernkit import cli
from chernkit import expr as ex
from chernkit.catalog import builtin, names, sample_points
from chernkit.conformal import conformal_metric
from chernkit.dsl import MetricSpec, parse_expression, parse_metric
from chernkit.jets import HERMITIAN_TOL, MetricError, _jets, factor_jet, metric_jet, metric_jets
from tree_reference import walk


def _fd_entry(spec, i_or_none, j_or_none, k, l, p, h=1e-5):
    """Central-difference d_i dbar_j g_{k lbar}(p); either index may be None."""

    def val(q):
        return complex(ex.evaluate(spec.entries[k][l], q))

    def d_holo(f, q, i):
        e = np.zeros(spec.n, dtype=complex)
        e[i] = 1
        fx = (f(q + h * e) - f(q - h * e)) / (2 * h)
        fy = (f(q + 1j * h * e) - f(q - 1j * h * e)) / (2 * h)
        return 0.5 * (fx - 1j * fy)

    def d_anti(f, q, j):
        e = np.zeros(spec.n, dtype=complex)
        e[j] = 1
        fx = (f(q + h * e) - f(q - h * e)) / (2 * h)
        fy = (f(q + 1j * h * e) - f(q - 1j * h * e)) / (2 * h)
        return 0.5 * (fx + 1j * fy)

    if i_or_none is None:
        return d_anti(val, p, j_or_none)
    if j_or_none is None:
        return d_holo(val, p, i_or_none)
    return d_anti(lambda q: d_holo(val, q, i_or_none), p, j_or_none)


def test_euclidean_jet_trivial():
    spec = builtin("euclidean-3").spec
    jet = metric_jet(spec, [0.3 + 1j, -0.2, 0.5j])
    assert np.array_equal(jet.g, np.eye(3))
    assert np.array_equal(jet.g_inv, np.eye(3))
    assert np.max(np.abs(jet.dg)) == 0
    assert np.max(np.abs(jet.ddbar_g)) == 0


def test_hopf_jet_hand_value():
    # d_1 (1/|z|^2) at (1, 0) is -zbar_1/|z|^4 = -1
    spec = builtin("hopf-2").spec
    jet = metric_jet(spec, [1.0, 0.0])
    assert np.max(np.abs(jet.g - np.eye(2))) < 1e-15
    assert abs(jet.dg[0, 0, 0] - (-1.0)) < 1e-15
    # cross-check the full first-derivative table by finite differences
    p = np.array([0.7 + 0.3j, -0.4 + 0.9j])
    jet = metric_jet(spec, p)
    for i in range(2):
        for k in range(2):
            for l in range(2):
                fd = _fd_entry(spec, i, None, k, l, p)
                assert abs(jet.dg[i, k, l] - fd) < 1e-8


def test_fubini_study_1_second_derivative_at_origin():
    # g = (1+|z|^2)^-2 for n=1; d dbar g at 0 equals -2 (hand expansion),
    # cross-checked against the finite-difference oracle
    spec = builtin("fubini-study-1").spec
    p = np.array([0.0])
    jet = metric_jet(spec, p)
    fd = _fd_entry(spec, 0, 0, 0, 0, p, h=1e-4)
    assert abs(jet.ddbar_g[0, 0, 0, 0] - fd) < 1e-6
    assert abs(jet.ddbar_g[0, 0, 0, 0] - (-2.0)) < 1e-12


def test_jet_tables_match_fd_on_catalog_samples():
    for name in ("fubini-study-2", "complex-hyperbolic-2", "hopf-2", "adm-product-surface"):
        entry = builtin(name)
        spec = entry.spec
        p = sample_points(entry, 1, 42)[0]
        jet = metric_jet(spec, p)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        fd = _fd_entry(spec, i, j, k, l, p, h=1e-4)
                        assert abs(jet.ddbar_g[i, j, k, l] - fd) < 2e-5 * max(1, abs(fd)), name
                fd1 = _fd_entry(spec, i, None, j, k, p)
                assert abs(jet.dg[i, j, k] - fd1) < 1e-7 * max(1, abs(fd1)), name


def test_hermitianity_links_dg_and_dbar_g():
    for name in ("fubini-study-3", "hopf-3", "complex-hyperbolic-2"):
        entry = builtin(name)
        pts = sample_points(entry, 10, 3)
        for jet in metric_jets(entry.spec, pts):
            # dbar_g[j,k,l] = conj(dg[j,l,k])
            linked = np.conj(np.swapaxes(jet.dg, 1, 2))
            assert np.max(np.abs(jet.dbar_g - linked)) < 1e-12


def test_inverse_metric_identity():
    entry = builtin("complex-hyperbolic-3")
    pts = sample_points(entry, 10, 4)
    for jet in metric_jets(entry.spec, pts):
        assert np.max(np.abs(jet.g_inv @ jet.g - np.eye(3))) < 1e-12


def test_non_positive_definite_rejected():
    spec = parse_metric("dim 1\ng[1,1] = -1")
    with pytest.raises(MetricError, match="positive definite"):
        metric_jet(spec, [0.5])


def test_non_hermitian_rejected():
    spec = parse_metric("dim 2\ng[1,1]=1\ng[2,2]=1\ng[1,2]=z1")
    with pytest.raises(MetricError, match="Hermitian"):
        metric_jet(spec, [0.5, 0.5])


def test_batch_matches_single_point():
    entry = builtin("fubini-study-2")
    pts = sample_points(entry, 5, 17)
    batch = metric_jets(entry.spec, pts)
    for p, jet in zip(pts, batch):
        single = metric_jet(entry.spec, p)
        assert np.array_equal(single.g, jet.g)
        assert np.array_equal(single.ddbar_g, jet.ddbar_g)
    with pytest.raises(ValueError, match="points have 3 coordinates, metric has n=2"):
        metric_jets(entry.spec, np.zeros((2, 3)))


def test_factor_jet_against_fd():
    from chernkit.dsl import parse_expression

    F = parse_expression("0.1*(z1*zbar1 - z2*zbar2) + 0.05*(z1*zbar2 + z2*zbar1)", 2)
    p = np.array([0.4 - 0.1j, 0.2 + 0.3j])
    fj = factor_jet(F, p)
    assert abs(fj.value - complex(ex.evaluate(F, p)).real) < 1e-15
    h = 1e-5
    for k in range(2):
        e = np.zeros(2, dtype=complex)
        e[k] = 1
        fx = (complex(ex.evaluate(F, p + h * e)) - complex(ex.evaluate(F, p - h * e))) / (2 * h)
        fy = (complex(ex.evaluate(F, p + 1j * h * e)) - complex(ex.evaluate(F, p - 1j * h * e))) / (2 * h)
        assert abs(fj.grad[k] - 0.5 * (fx - 1j * fy)) < 1e-9
        assert abs(fj.grad_bar[k] - 0.5 * (fx + 1j * fy)) < 1e-9
    # mixed Hessian of this quadratic factor is constant: [[0.1, 0.05], [0.05, -0.1]]
    assert np.max(np.abs(fj.hess - np.array([[0.1, 0.05], [0.05, -0.1]]))) < 1e-14


def test_factor_jet_takes_n_from_the_points():
    from chernkit.dsl import parse_expression

    pts = np.array([[0.1, 0.2j, -0.3], [0.4j, 0.5, 0.6 - 0.1j]])
    fj = factor_jet(parse_expression("0.1*abs2(z) + z1*zbar2 + z2*zbar1", 3), pts)
    assert len(fj) == 2 and fj.point.shape == (2, 3) and fj.hess.shape == (2, 3, 3)
    assert np.array_equal(fj.point, pts)


def test_factor_jet_rejects_complex_factor():
    from chernkit.dsl import parse_expression

    F = parse_expression("z1", 1)
    with pytest.raises(ValueError, match="not real"):
        factor_jet(F, [0.3 + 0.2j])


def test_factor_jet_measures_its_imaginary_part_against_its_value():
    from chernkit.dsl import parse_expression

    # round-off of a real factor grows with it: 1e12 times a factor is as real as the factor
    p = [0.3 + 0.7j, 0.9 - 0.4j]
    for scale in (1.0, 1e6, 1e12):
        fj = factor_jet(parse_expression(f"{scale!r}*z1*z2*zbar1*zbar2", 2), p)
        assert isinstance(fj.value, float) and abs(fj.value / scale - abs(p[0] * p[1]) ** 2) <= 1e-15
    # a factor that is not real is rejected, at the first point where it is not
    with pytest.raises(ValueError, match=re.escape("not real at [0.3+0.7j 0.9-0.4j] (Im = 5.800e-01)")):
        factor_jet(parse_expression("1i*z1*zbar1", 2), p)
    with pytest.raises(ValueError, match=re.escape("not real at [0.5+0.2j ")):
        factor_jet(parse_expression("z1 - zbar1", 2), [[0.5, 0.1], [0.5 + 0.2j, 0.1]])


def test_factor_jet_rejects_non_finite_jets():
    from chernkit.dsl import parse_expression

    # the value overflows; then a finite value whose Hessian is not finite
    with pytest.raises(MetricError, match=r"conformal factor is not finite at \[1\.\+0\.j\]"):
        factor_jet(parse_expression("exp(1000*z1*zbar1)", 1), [1.0])
    F = parse_expression("-0.5*log(abs2(z))", 2)
    with pytest.raises(MetricError, match="conformal factor derivatives are not finite at"):
        factor_jet(F, [1e-100, 0])
    # the first failing point is named, with the first check it fails
    with pytest.raises(MetricError, match=r"derivatives are not finite at \[1\.e-100"):
        factor_jet(F, [[0.5, 0.1], [1e-100, 0], [0.3, 0.2]])


@pytest.mark.parametrize("text, reason", [("1/(z1*zbar1)", "division by zero"), ("log(z1*zbar1)", "log of zero")])
def test_factor_jet_raises_where_its_program_fails(text, reason):
    from chernkit.dsl import parse_expression

    F = parse_expression(text, 2)
    with pytest.raises(ex.EvaluationError, match=reason):
        factor_jet(F, [0.0, 0.5])
    with pytest.raises(ex.EvaluationError, match=reason):
        factor_jet(F, [[0.5, 0.1j], [0.0, 0.5], [0.3, 0.2]])
    assert np.isfinite(factor_jet(F, [[0.5, 0.1j], [0.3, 0.2]]).hess).all()


def _g_program(spec):
    return ex.compile_program([spec.entries[k][l] for k in range(spec.n) for l in range(spec.n)])


def test_compiled_jets_bit_identical_to_tree_evaluation():
    # reference: every table entry as its own tree, through ex.evaluate.  g is
    # pinned bit for bit; the jet run's derivative columns follow the product,
    # quotient and chain rules rather than the symbolic trees' operation order,
    # so they are pinned to round-off relative to the entry
    for name in names():
        entry = builtin(name)
        spec, n = entry.spec, entry.spec.n
        pts = sample_points(entry, 7, 5)
        E, r = spec.entries, range(n)

        def ref(e):
            return np.broadcast_to(walk(e, pts), (len(pts),))

        def close(got, e):
            want = ref(e)
            return np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

        g = ex.evaluate(_g_program(spec), pts)
        for k in r:
            for l in r:
                assert np.array_equal(g[:, k * n + l], ref(E[k][l])), (name, k, l)
        jets = metric_jets(spec, pts)
        for i in r:
            for k in r:
                for l in r:
                    d_i = ex.wirtinger_diff(E[k][l], "holo", i + 1)
                    assert close(jets.dg[:, i, k, l], d_i), (name, i, k, l)
                    assert close(jets.dbar_g[:, i, k, l], ex.wirtinger_diff(E[k][l], "anti", i + 1)), (name, i, k, l)
                    for j in r:
                        dd = ex.wirtinger_diff(d_i, "anti", j + 1)
                        assert close(jets.ddbar_g[:, i, j, k, l], dd), (name, i, j, k, l)


def test_non_finite_metric_rejected():
    # g overflows: exp(722) is beyond the largest double
    spec = parse_metric("dim 1\ng[1,1] = exp(800*z1*zbar1)")
    with pytest.raises(MetricError, match=r"metric is not finite at \[0.95"):
        metric_jet(spec, [0.95])
    # g is finite (about 1.6e306) but d dbar g is 700^2 |z|^2 g, which overflows
    spec = parse_metric("dim 1\ng[1,1] = exp(700*z1*zbar1)")
    p = np.sqrt(705 / 700)
    assert np.isfinite(metric_jet(spec, [0.9]).ddbar_g).all()
    with pytest.raises(MetricError, match="metric derivatives are not finite"):
        metric_jets(spec, [[0.9], [p], [0.5]])


def test_hermitian_tolerance_is_relative_to_metric_size():
    entry = builtin("fubini-study-2")
    spec = entry.spec
    big = MetricSpec(
        n=2,
        entries=[[ex.mul(ex.const(1e12), e) for e in row] for row in spec.entries],
        name="fubini-study-2-scaled",
        domain=spec.domain,
    )
    pts = sample_points(entry, 20, 9)
    g = ex.evaluate(_g_program(big), pts).reshape(-1, 2, 2)
    herm = np.max(np.abs(g - np.conj(np.swapaxes(g, 1, 2))), axis=(1, 2))
    assert np.max(herm) >= HERMITIAN_TOL  # an absolute tolerance would reject it
    for small, large in zip(metric_jets(spec, pts), metric_jets(big, pts)):
        want = 1e12 * np.linalg.eigvalsh(small.g)
        assert np.allclose(np.linalg.eigvalsh(large.g), want, rtol=1e-12, atol=0)
    # a genuinely non-Hermitian entry stays rejected at any scale
    skew = parse_metric("dim 2\ng[1,1]=1e12\ng[2,2]=1e12\ng[1,2]=1e12*z1")
    with pytest.raises(MetricError, match="Hermitian"):
        metric_jet(skew, [0.5, 0.5])


def test_denominator_only_the_symbolic_square_underflowed_evaluates():
    # |b| = 1e-200 passes the 1e-300 guard, but the symbolic quotient rule's
    # b^2 underflowed to 0; the jet run divides by b alone
    jet = metric_jet(parse_metric("dim 1\ng[1,1] = 1 + 1e-300/(z1*zbar1)"), [1e-100])
    assert jet.dg[0, 0, 0] == -1 and abs(jet.ddbar_g[0, 0, 0, 0] - 1e100) <= 1e86
    # here the derivatives themselves overflow, and the point is rejected for it
    with pytest.raises(MetricError, match="derivatives are not finite"):
        metric_jet(parse_metric("dim 1\ng[1,1] = 1 + 1/(1e200*z1*zbar1)"), [1e-190])


def test_metric_jets_runs_the_g_program_once(monkeypatch):
    # one jet run gives g (its value column) and the derivatives alike
    runs = []
    run = ex._run

    def counted(*args, **kwargs):
        runs.append(kwargs.get("jet", args[2] if len(args) > 2 else False))
        return run(*args, **kwargs)

    monkeypatch.setattr(ex, "_run", counted)
    for name in ("hopf-2", "fubini-study-4"):
        entry = builtin(name)
        runs.clear()
        metric_jets(entry.spec, sample_points(entry, 4, 1))
        assert runs == [True], name
    # a failing point costs one more jet run, which finds it
    runs.clear()
    jets = _jets(builtin("hopf-2").spec, [[0.5, 0.5], [0.0, 0.0]])[0]
    assert runs == [True, True] and len(jets) == 1


def test_each_spec_compiles_its_g_program_once(monkeypatch):
    compiled = []
    compile_program = ex.compile_program
    monkeypatch.setattr(ex, "compile_program", lambda roots: compiled.append(1) or compile_program(roots))
    builtin.cache_clear()  # a catalog spec made before this test may hold its program already
    entry = builtin("hopf-2")
    pts = sample_points(entry, 3, 4)
    first = metric_jets(entry.spec, pts)
    argv = ["eval", "--metric", "hopf-2", "--point=0.3+0.1i,0.2-0.4i", "--alpha", "1", "--beta", "1"]
    outputs = set()
    for _ in range(3):
        again = metric_jets(entry.spec, pts)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        outputs.add(out.getvalue())
    assert len(compiled) == 1 and len(outputs) == 1
    assert all(np.array_equal(getattr(first, f), getattr(again, f)) for f in ("g", "dg", "dbar_g", "ddbar_g", "g_inv"))
    # e^{2F} times the flat metric is the hopf-2 metric: a spec of its own, with its own program
    base = builtin("euclidean-2").spec
    base_jets = metric_jets(base, pts)
    compiled.clear()
    conf = conformal_metric(base, parse_expression("-0.5*log(abs2(z))", 2))
    conf_jets = metric_jets(conf, pts)
    assert len(compiled) == 1 and conf.program is not base.program
    for f in ("g", "dg", "dbar_g", "ddbar_g", "g_inv"):
        assert np.allclose(getattr(conf_jets, f), getattr(first, f), rtol=1e-13, atol=1e-13), f
    assert np.array_equal(metric_jets(base, pts).g, base_jets.g) and np.array_equal(base_jets.g, np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert len(compiled) == 1


def test_a_spec_cannot_change_after_it_is_built():
    # the cached program stays the program of the entries
    rows = [[ex.add(ex.ONE, ex.mul(ex.coord(1), ex.conj_coord(1)))]]
    spec = MetricSpec(n=1, entries=rows)
    assert spec.entries == ((rows[0][0],),)
    rows[0][0] = ex.ONE  # the spec holds tuples of its own
    assert spec.entries[0][0] != ex.ONE
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.entries = ((ex.ONE,),)
    assert spec.program is spec.program


def _scaled_spec(text, s):
    return parse_metric(re.sub(r"^(g\[\d,\d\]) = (.*)$", rf"\1 = {s}*(\2)", text, flags=re.M))


_NOT_HERMITIAN = "dim 2\ng[1,1] = 1 + z1*zbar1\ng[2,2] = 1 + z2*zbar2\ng[1,2] = z1/2\ng[2,1] = zbar1/3\n"


@pytest.mark.parametrize("s", ["1", "1e-160", "1e100"])
def test_small_and_large_non_hermitian_metrics_are_rejected(s):
    # the tolerance scales with max|g| and has no floor, so 1e-160 g escapes it no more than g does
    with pytest.raises(MetricError, match="not Hermitian"):
        metric_jet(_scaled_spec(_NOT_HERMITIAN, s), [0.3 + 0.1j, 0.2])


def test_zero_metric_is_not_positive_definite():
    with pytest.raises(MetricError, match="not positive definite"):
        metric_jet(parse_metric("dim 2\ng[1,1] = 0*z1\ng[2,2] = 0*z2"), [0.3, 0.2])
