"""Property-based checks of the compiled evaluation path on random expression trees.

Trees are drawn over z1..z3.  Every log and every denominator has the form
c + e*conj(e) with c >= 1, so no draw hits a pole or a branch cut.  Draws whose
values leave [-1e4, 1e4] (nested exp and powers can overflow) are discarded.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chernkit import expr as ex  # noqa: E402
from chernkit.dsl import parse_expression  # noqa: E402
from tree_reference import walk  # noqa: E402

N = 3
PTS = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4, 2 * N)).view(complex)
FD_TOL = 1e-6  # relative to max(1, max |e|) at PTS
# no shrink phase: shrinking a failing curvature property recompiles a program per
# candidate and took minutes; the failing example is reported as generated
DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=150, phases=[Phase.explicit, Phase.generate]
)


def _at_least(c, e):
    """c + e*conj(e): real and >= c wherever e is finite."""
    return ex.add(ex.const(c), ex.mul(e, ex.conj(e)))


_consts = st.one_of(
    st.floats(-2, 2, allow_nan=False).map(ex.const),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False).map(ex.const),
)
_leaves = st.one_of(_consts, st.integers(1, N).map(ex.coord), st.integers(1, N).map(ex.conj_coord))
_offsets = st.floats(1, 3, allow_nan=False)


def _extend(children):
    return st.one_of(
        st.builds(ex.neg, children),
        st.builds(ex.conj, children),
        st.builds(ex.exp, children),
        st.builds(lambda e, c: ex.log(_at_least(c, e)), children, _offsets),
        st.builds(ex.add, children, children),
        st.builds(ex.sub, children, children),
        st.builds(ex.mul, children, children),
        st.builds(lambda a, b, c: ex.div(a, _at_least(c, b)), children, children, _offsets),
        st.builds(ex.int_pow, children, st.integers(2, 3)),
    )


def _trees(depth):
    return _leaves if depth == 0 else st.one_of(_leaves, _extend(_trees(depth - 1)))


trees = _trees(4)


def _values(e):
    """e at PTS as an (m,) array, or None when it leaves [-1e4, 1e4] or overflows."""
    with np.errstate(all="ignore"):
        v = np.broadcast_to(ex.evaluate(e, PTS), (len(PTS),))
    return v if np.all(np.isfinite(v)) and np.max(np.abs(v)) <= 1e4 else None


@DETERMINISTIC
@given(st.lists(trees, min_size=1, max_size=4))
def test_compiled_program_is_bit_identical_to_trees(roots):
    roots = roots + [ex.wirtinger_diff(e, kind, k) for e in roots for kind in ("holo", "anti") for k in (1, N)]
    with np.errstate(all="ignore"):
        out = ex.evaluate(ex.compile_program(roots), PTS)
        want = np.stack([np.broadcast_to(walk(e, PTS), (len(PTS),)) for e in roots], axis=1)
    assert out.tobytes() == want.tobytes()


ORIGIN = np.zeros((1, N), dtype=complex)  # where an unguarded 1/t or log(t) may fail


@DETERMINISTIC
@given(st.lists(trees, min_size=1, max_size=3), trees)
def test_jet_run_matches_the_symbolic_derivatives(roots, t):
    assume(t.kind != "const")
    roots = roots + [ex.div(ex.ONE, t), ex.log(t)]
    prog, pts = ex.compile_program(roots), np.concatenate([PTS, ORIGIN])
    with np.errstate(all="ignore"):
        plain, failed = ex._run(prog, pts)
        J, jet_failed = ex._run(prog, pts, jet=True)
    assert J[:, 0].tobytes() == plain.tobytes()
    assert np.array_equal(jet_failed, failed)
    # column c of the jet against the symbolic tree for it, at PTS
    holo = [[ex.wirtinger_diff(e, "holo", i) for i in range(1, N + 1)] for e in roots]
    anti = [[ex.wirtinger_diff(e, "anti", j) for j in range(1, N + 1)] for e in roots]
    mixed = [[ex.wirtinger_diff(d, "anti", j) for d in row for j in range(1, N + 1)] for row in holo]
    refs = [h + a + dd for h, a, dd in zip(holo, anti, mixed)]
    with np.errstate(all="ignore"):
        want, want_failed = ex._run(ex.compile_program([d for row in refs for d in row]), PTS)
    want = want.reshape(len(PTS), len(roots), -1).transpose(0, 2, 1)
    got = J[: len(PTS), 1:]
    ok = (failed[: len(PTS)] < 0) & (want_failed < 0)
    ok = ok[:, None, None] & np.isfinite(want)
    assert np.all(np.abs(got - want)[ok] <= 1e-13 * np.maximum(1.0, np.abs(want[ok])))


@DETERMINISTIC
@given(trees)
def test_fd_residual_stays_under_tolerance(e):
    values = _values(e)
    assume(values is not None)
    with np.errstate(all="ignore"):
        residual = ex.fd_residual(e, PTS)
    assert residual <= FD_TOL * max(1.0, float(np.max(np.abs(values))))


@DETERMINISTIC
@given(trees)
def test_source_round_trip_evaluates_to_the_tree(e):
    values = _values(e)
    assume(values is not None)
    back = parse_expression(ex.to_source(e), N)
    with np.errstate(all="ignore"):
        again = np.broadcast_to(ex.evaluate(back, PTS), (len(PTS),))
    # the parser groups products and sums left to right, so rounding may differ
    assert np.allclose(again, values, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Curvature identities on random metrics and conformal factors

from chernkit.catalog import builtin, sample_points  # noqa: E402
from chernkit.conformal import conformal_curvature_via_formula, conformal_metric  # noqa: E402
from chernkit.dsl import MetricSpec  # noqa: E402
from chernkit.geometry import (  # noqa: E402
    chern_curvature,
    hermitian_symmetry_residual,
    ricci_bundle,
    to_unitary_frame,
)
from chernkit.jets import factor_jet, metric_jets  # noqa: E402

FEW = settings(DETERMINISTIC, max_examples=40)
_unit = st.floats(-1, 1, allow_nan=False)


def _matrices(n, count):
    """count complex n x n matrices with entries in the unit square."""
    return st.lists(st.tuples(_unit, _unit), min_size=count * n * n, max_size=count * n * n).map(
        lambda xy: np.array([complex(x, y) for x, y in xy]).reshape(count, n, n)
    )


def _linear(row, conj):
    """sum_i row[i] z_i, or its conjugate sum_i conj(row[i]) zbar_i."""
    terms = [ex.mul(ex.const(np.conj(c) if conj else c), (ex.conj_coord if conj else ex.coord)(i + 1)) for i, c in enumerate(row)]
    return sum(terms[1:], terms[0])


def _constant_plus_quadratic(A, Ms):
    """g = A + sum_m (M_m z)(M_m z)^H: Hermitian, and positive definite where A is."""
    n = len(A)
    entries = [
        [sum((ex.mul(_linear(M[k], False), _linear(M[l], True)) for M in Ms), ex.const(A[k, l])) for l in range(n)]
        for k in range(n)
    ]
    return MetricSpec(n=n, entries=entries, name="random-quadratic")


@FEW
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(_matrices(n, 1), _matrices(n, 2))))
def test_constant_plus_quadratic_metrics_keep_the_curvature_symmetries(drawn):
    (L,), Ms = drawn
    n = len(L)
    A = L @ L.conj().T + np.eye(n)  # Hermitian positive definite
    pts = np.random.default_rng(n).uniform(-0.4, 0.4, size=(5, 2 * n)).view(complex)
    jets = metric_jets(_constant_plus_quadratic(A, Ms), pts)
    Rc = chern_curvature(jets)
    scale = max(1.0, float(np.max(np.abs(Rc.tensor))))
    assert np.max(hermitian_symmetry_residual(Rc)) <= 1e-12 * scale
    b = ricci_bundle(Rc)
    tr_rho2 = np.einsum("...ji,...ij->...", jets.g_inv, b.rho2).real
    u_unitary = ricci_bundle(to_unitary_frame(Rc)).u
    assert np.max(np.abs(tr_rho2 - b.u)) <= 1e-12 * scale
    assert np.max(np.abs(u_unitary - b.u)) <= 1e-12 * scale


def _real_quadratic(H, S, n):
    """F = sum H_ij z_i zbar_j + 2 Re sum S_ij z_i z_j with H Hermitian: a real quadratic factor."""
    F = ex.ZERO
    for i in range(n):
        for j in range(n):
            zz = ex.mul(ex.coord(i + 1), ex.coord(j + 1))
            F = ex.add(F, ex.mul(ex.const(H[i, j]), ex.mul(ex.coord(i + 1), ex.conj_coord(j + 1))))
            F = ex.add(F, ex.add(ex.mul(ex.const(S[i, j]), zz), ex.mul(ex.const(np.conj(S[i, j])), ex.conj(zz))))
    return F


@FEW
@given(st.sampled_from(["fubini-study-2", "hopf-2", "complex-hyperbolic-3"]).flatmap(
    lambda name: st.tuples(st.just(name), _matrices(builtin(name).spec.n, 2))
))
def test_real_quadratic_factors_obey_the_conformal_law(drawn):
    name, (B, S) = drawn
    entry = builtin(name)
    n = entry.spec.n
    H = 0.5 * (B + B.conj().T) / n  # Hermitian, so that F is real
    F = _real_quadratic(H, S / n, n)
    pts = sample_points(entry, 4, 3)
    jets = metric_jets(entry.spec, pts)
    pred = conformal_curvature_via_formula(chern_curvature(jets), factor_jet(F, pts)).tensor
    direct = chern_curvature(metric_jets(conformal_metric(entry.spec, F), pts)).tensor
    assert np.max(np.abs(pred - direct)) <= 1e-8 * max(1.0, float(np.max(np.abs(direct))))


# ---------------------------------------------------------------------------
# DSL source through the CLI: every input evaluates or exits 2 with one error line

import json  # noqa: E402
import re  # noqa: E402

from chernkit.catalog import names  # noqa: E402
from chernkit.dsl import print_metric  # noqa: E402
from test_cli import _main  # noqa: E402

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_numbers = st.sampled_from(["0", "1", "2.5", "3i", "1e200", "1e-200", "1e300", "1e-300", "1e308", "1e-320"])


def _sources(n, numbers=_numbers):
    """DSL expression text over z1..zn: numbers (by default from 1e-320 to 1e308), coordinates, abs2, + - * / ^,
    exp, log, conj."""
    coords = [f"z{k}" for k in range(1, n + 1)] + [f"zbar{k}" for k in range(1, n + 1)] + ["abs2(z)"]
    return st.recursive(
        st.one_of(numbers, st.sampled_from(coords)),
        lambda kids: st.one_of(
            st.builds("({}) {} ({})".format, kids, st.sampled_from("+-*/"), kids),
            st.builds("{}({})".format, st.sampled_from(["exp", "log", "conj", "abs2", "-"]), kids),
            st.builds("({})^{}".format, kids, st.sampled_from(["2", "3", "-1", "1e200"])),
        ),
        max_leaves=5,
    )


def _metric_texts(n, numbers=_numbers):
    """A dim-n metric file whose entries are drawn from _sources(n, numbers), with g[j,i] = conj(g[i,j]).

    Half the diagonal entries are 1 + abs2(e), so that more of the drawn metrics are positive definite.
    """
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    sources = _sources(n, numbers)
    entries = [st.one_of(sources, sources.map("1 + abs2({})".format)) if i == j else sources for i, j in cells]
    return st.tuples(*entries).map(
        lambda texts: f"dim {n}\n" + "".join(
            f"g[{i},{j}] = {t}\n" + (f"g[{j},{i}] = conj({t})\n" if i != j else "") for (i, j), t in zip(cells, texts)
        )
    )


def _exit_codes(path, where=("--points", "2")):
    """The exit codes of eval and extremize at the points where names (2 sampled points by default) of the
    metric file, each checked to be 0 or 2."""
    codes = []
    for command in ("eval", "extremize"):
        code, out, err = _main(command, "--metric", str(path), *where, "--alpha", "1", "--beta", "1")
        assert code in (0, 2), (command, code, err)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (command, err)
        assert not _NON_FINITE.search(out), (command, out)
        codes.append(code)
    return codes


@settings(DETERMINISTIC, max_examples=100)
@given(st.integers(1, 2).flatmap(_metric_texts))
def test_every_metric_source_evaluates_or_exits_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("dsl") / "drawn.metric"
    path.write_text(text)
    _exit_codes(path)


# constants up to the ends of the float range, each of either sign
_wide_numbers = st.one_of(
    _numbers,
    st.sampled_from(["1.7e308", "-1.7e308", "-1e308", "-1e-320", "1e-155", "-2.5"]),
    st.floats(-1.7e308, 1.7e308, allow_nan=False).map(repr),
)
# coordinates of an explicit point, down to 1e-155, whose square is subnormal
_coordinates = st.sampled_from(["0", "1e-155", "-5e-155", "5e-155i", "1e-200", "0.3", "0.1-0.2i", "-0.25i"])


def _wide_metrics(n):
    """(a dim-n metric text with _wide_numbers, the arguments that name its points): 2 sampled points or one
    explicit point."""
    point = st.lists(_coordinates, min_size=n, max_size=n).map(lambda zs: ("--point=" + ",".join(zs),))
    return st.tuples(_metric_texts(n, _wide_numbers), st.one_of(st.just(("--points", "2")), point))


@settings(DETERMINISTIC, max_examples=100)
@given(st.integers(1, 3).flatmap(_wide_metrics))
# the finite terms of the curvature sum past the float range at this point
@example(("dim 1\ng[1,1] = 1 - 1.7e308*z1*zbar1\ndomain ball 1\n", ("--point=5e-155+0i",)))
def test_every_metric_source_at_the_ends_of_the_float_range_evaluates_or_exits_2(tmp_path_factory, drawn):
    text, where = drawn
    path = tmp_path_factory.mktemp("dsl") / "drawn.metric"
    path.write_text(text)
    _exit_codes(path, where)


@pytest.mark.parametrize("s", [1e-150, 1e150])
def test_scaled_catalog_metrics_evaluate(tmp_path, s):
    for name in names():
        spec = builtin(name).spec
        scaled = MetricSpec(spec.n, [[ex.mul(ex.const(s), e) for e in row] for row in spec.entries], domain=spec.domain)
        path = tmp_path / f"{name}.metric"
        path.write_text(print_metric(scaled))
        assert _exit_codes(path) == [0, 0], name


@pytest.mark.parametrize(
    "text, point",
    [
        # finite entries, but the largest eigenvalue of g overflows
        (
            "dim 2\ng[1,1] = 1.7e+308\ng[2,2] = 1.7e+308 + 1e+150*z2*zbar1\n"
            "g[1,2] = 1.7e+308*z1*zbar2\ng[2,1] = 1.7e+308*z2*zbar1\n",
            "0.3,0.1-0.2i",
        ),
        # R is finite in both frames; its traces rho1 and u overflow
        ("dim 2\ng[1,1] = 1 + 1.7e308*z1*zbar1\ng[2,2] = 1 + 1.7e308*z1*zbar1\n", "1e-200,0"),
        # -ddbar g is 1.7e308 and g^-1 dg dbar g about 1.3e308: their sum, the curvature, overflows
        ("dim 1\ng[1,1] = 1 - 1.7e308*z1*zbar1\ndomain ball 1\n", "5e-155+0i"),
        # finite entries, but the smallest eigenvalue of g is -inf: no message may name it
        (
            "dim 2\ng[1,1] = conj((z1) - (1.7e308))\ng[1,2] = -1.7e308\n"
            "g[2,1] = conj(-1.7e308)\ng[2,2] = 1 + abs2((-1e-320)^1e200)\n",
            "0.3,0.1-0.2i",
        ),
    ],
    ids=["eigenvalue", "ricci-traces", "curvature-sum", "eigenvalue-sign"],
)
def test_a_point_whose_outputs_overflow_exits_2(tmp_path, text, point):
    path = tmp_path / "overflow.metric"
    path.write_text(text)
    # eval at H alone, whose extrema stay finite on the second metric: the point's record is one error
    code, out, err = _main("eval", "--metric", str(path), f"--point={point}")
    (record,) = json.loads(out)["records"]
    assert (code, err) == (2, "") and "error" in record, out
    assert not _NON_FINITE.search(out), out
    # extremize where rho1 enters the form
    code, out, err = _main("extremize", "--metric", str(path), f"--point={point}", "--alpha", "1", "--beta", "1")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, err
