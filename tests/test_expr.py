"""Expression trees: Wirtinger calculus, evaluation, printing, FD cross-checks."""

import numpy as np
import pytest

from pathlib import Path

import tape_reference
from chernkit import expr as ex
from chernkit.catalog import builtin, names, sample_points
from chernkit.conformal import conformal_metric
from chernkit.dsl import parse_expression, parse_metric
from tree_reference import walk

Z1, Z2 = ex.coord(1), ex.coord(2)
ZB1, ZB2 = ex.conj_coord(1), ex.conj_coord(2)


def _rand_points(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(count, 2 * n)).view(complex) + 0.1


def test_product_rule_independent_symbols():
    # d/dz1 (z1*zbar1) -> zbar1, exactly (constant folding collapses the rest)
    assert ex.wirtinger_diff(Z1 * ZB1, "holo", 1) == ZB1
    # absent symbol
    assert ex.wirtinger_diff(Z1 * ZB1, "holo", 2) == ex.ZERO
    # conjugate coordinate is holomorphically constant
    assert ex.wirtinger_diff(ZB1, "holo", 1) == ex.ZERO
    assert ex.wirtinger_diff(ZB1, "anti", 1) == ex.ONE


def test_chain_rule_log():
    e = ex.log(1 + Z1 * ZB1)
    d = ex.wirtinger_diff(e, "anti", 1)
    for p in _rand_points(1, 10, 0):
        z = p[0]
        want = z / (1 + z * np.conj(z))
        assert abs(ex.evaluate(d, p) - want) < 1e-14


def test_conj_swaps_derivative_kind():
    e = ex.exp(Z1 * Z1) + ex.conj(ex.log(1 + Z2 * ZB2))
    for p in _rand_points(2, 10, 1):
        holo = ex.evaluate(ex.wirtinger_diff(e, "holo", 2), p)
        anti_of_conj = ex.evaluate(ex.wirtinger_diff(ex.conj(e), "anti", 2), p)
        assert abs(np.conj(holo) - anti_of_conj) < 1e-14


def test_conj_distributes_over_evaluation():
    exprs = [
        Z1 * ZB2 + ex.exp(Z2),
        ex.log(2 + Z1 * ZB1),
        (1 - Z1) / (3 + Z2 * ZB2),
        ex.int_pow(Z1 + 2 * ZB2, 3),
    ]
    pts = _rand_points(2, 20, 2)
    for e in exprs:
        lhs = ex.evaluate(ex.conj(e), pts)
        rhs = np.conj(ex.evaluate(e, pts))
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_real_expression_has_conjugate_derivatives():
    # for real-valued e, dbar e = conj(d e)
    e = Z1 * ZB1 + ex.log(1 + Z2 * ZB2) + ex.exp(Z1 * ZB2 + Z2 * ZB1)
    for p in _rand_points(2, 10, 3):
        for k in (1, 2):
            d = ex.evaluate(ex.wirtinger_diff(e, "holo", k), p)
            db = ex.evaluate(ex.wirtinger_diff(e, "anti", k), p)
            assert abs(np.conj(d) - db) < 1e-13


def test_evaluate_examples():
    abs2 = Z1 * ZB1 + Z2 * ZB2
    assert abs(ex.evaluate(abs2, [1.0, 1j]) - 2.0) < 1e-15
    assert abs(ex.evaluate(1 / abs2, [1.0, 0.0]) - 1.0) < 1e-15
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(1 / Z1, [0.0, 1.0])
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(ex.log(Z1), [0.0, 1.0])


def test_evaluate_batch_matches_pointwise():
    e = ex.exp(Z1 * ZB2) / (2 + Z2)
    pts = _rand_points(2, 7, 4)
    batch = ex.evaluate(e, pts)
    single = np.array([ex.evaluate(e, p) for p in pts])
    assert np.array_equal(batch, single)


def test_constant_folding():
    assert ex.mul(ex.ZERO, Z1) == ex.ZERO
    assert ex.add(Z1, ex.ZERO) == Z1
    assert ex.mul(ex.ONE, Z2) == Z2
    assert ex.const(2) * ex.const(3) == ex.const(6)
    assert ex.conj(ex.conj(Z1)) == Z1
    assert ex.conj(Z1) == ZB1
    assert ex.neg(ex.neg(Z1)) == Z1


def test_int_pow_sugar():
    assert ex.int_pow(Z1, 0) == ex.ONE
    assert ex.int_pow(Z1, 1) == Z1
    # negative exponents become a quotient
    e = ex.int_pow(Z1, -2)
    assert e.kind == "div"
    for p in _rand_points(1, 5, 5):
        assert abs(ex.evaluate(e, p) - p[0] ** -2) < 1e-12
    with pytest.raises(TypeError):
        ex.int_pow(Z1, 0.5)


def test_pow_derivative():
    e = ex.int_pow(1 + Z1 * ZB1, 3)
    d = ex.wirtinger_diff(e, "holo", 1)
    for p in _rand_points(1, 5, 6):
        z = p[0]
        want = 3 * (1 + z * np.conj(z)) ** 2 * np.conj(z)
        assert abs(ex.evaluate(d, p) - want) < 1e-12


def test_fd_residual_examples():
    assert ex.fd_residual(Z1 * Z1, np.array([1 + 1j, 0.0])) < 1e-8
    assert ex.fd_residual(ex.log(1 + Z1 * ZB1), np.array([0.3, 0.0])) < 1e-6
    assert ex.fd_residual(ex.const(5), np.array([0.2 + 0.1j])) < 1e-12


def test_fd_residual_generic_trees():
    e = ex.exp(Z1 * ZB2) / (2 + Z2 * ZB2) + ex.conj(ex.log(3 + Z1 * ZB1))
    for p in _rand_points(2, 5, 7):
        assert ex.fd_residual(e, p) < 1e-6


def test_fd_residual_batch_is_the_max_over_points():
    cases = [(ex.exp(Z1 * ZB2) / (2 + Z2 * ZB2) + ex.conj(ex.log(3 + Z1 * ZB1)), _rand_points(2, 20, 8))]
    entry = builtin("adm-product-surface")
    pts = sample_points(entry, 20, 9)
    cases += [(e, pts) for row in entry.spec.entries for e in row if e != ex.ZERO]
    cases.append((ex.const(5), pts))
    for e, pts in cases:
        singles = max(ex.fd_residual(e, p) for p in pts)
        assert abs(ex.fd_residual(e, pts) - singles) <= 1e-12


def test_to_source_round_trip():
    exprs = [
        Z1 * ZB1 + Z2 * ZB2,
        (1 - Z1 * ZB1) / ex.int_pow(1 + Z2 * ZB2, 2),
        ex.exp(2 * ex.log(1 + Z1 * ZB1)) - ex.const(0.5 + 0.25j) * Z2,
        ex.neg(Z1 + Z2) * ex.conj(Z1 - 1j * Z2),
        ex.int_pow(ex.const(-2) * Z1, 2),
    ]
    pts = _rand_points(2, 20, 8)
    for e in exprs:
        back = parse_expression(ex.to_source(e), 2)
        assert np.max(np.abs(ex.evaluate(e, pts) - ex.evaluate(back, pts))) < 1e-12


def test_coordinate_index_validation():
    with pytest.raises(ValueError):
        ex.coord(0)
    with pytest.raises(ValueError):
        ex.wirtinger_diff(Z1, "holo", 0)
    with pytest.raises(ValueError):
        ex.wirtinger_diff(Z1, "mixed", 1)
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(Z2, [1.0])  # point has too few coordinates


def test_compile_program_interns_structurally_equal_subtrees():
    # two trees built separately share no nodes by identity, only by structure
    def tree():
        w = 1 + Z1 * ZB1 + Z2 * ZB2
        return ex.exp(Z1 * ZB2) / ex.int_pow(w, 2) - ex.log(w)

    a, b = tree(), tree()
    prog = ex.compile_program([a, b, ex.wirtinger_diff(a, "anti", 1)])
    assert prog.outputs[0] == prog.outputs[1]
    alone = ex.compile_program([a])
    assert len(ex.compile_program([a, b])) == len(alone)
    # 1 + Z1*ZB1 + Z2*ZB2 is one instruction per distinct node: 4 leaves + const + 4 ops
    w_prog = ex.compile_program([1 + Z1 * ZB1 + Z2 * ZB2] * 3)
    assert len(w_prog) == 9 and w_prog.n_coords == 2


def test_compiled_program_bit_identical_to_tree_evaluation():
    exprs = [
        Z1 * ZB1 + Z2 * ZB2,
        ex.exp(Z1 * ZB2) / (2 + Z2 * ZB2) + ex.conj(ex.log(3 + Z1 * ZB1)),
        (1 - Z1 * ZB1) / ex.int_pow(1 + Z2 * ZB2, 2),
        ex.neg(Z1 + Z2) * ex.conj(Z1 - 1j * Z2),
        ex.const(0.5 - 2j),
    ]
    exprs += [ex.wirtinger_diff(e, kind, k) for e in exprs[:4] for kind in ("holo", "anti") for k in (1, 2)]
    pts = _rand_points(2, 9, 11)
    prog = ex.compile_program(exprs)
    out = ex.evaluate(prog, pts)
    assert out.shape == (9, len(exprs))
    assert np.array_equal(ex.evaluate(prog, pts[3]), out[3])
    for j, e in enumerate(exprs):
        assert np.array_equal(out[:, j], np.broadcast_to(walk(e, pts), (9,))), j
        assert np.array_equal(out[:, j], ex.evaluate(e, pts)), j


def test_compiled_program_guards_match_tree_evaluation():
    pts = np.array([[0.5, 1.0], [0.0, 0.0]], dtype=complex)
    cases = [1 / Z1, ex.log(Z2), ex.log(Z1) / Z2, Z1 / ex.log(1 + Z2), ex.log(Z1) * (1 / Z2)]
    for e in cases:
        with pytest.raises(ex.EvaluationError) as want:
            walk(e, pts)
        for run in (e, ex.compile_program([e])):
            with pytest.raises(ex.EvaluationError) as got:
                ex.evaluate(run, pts)
            assert str(got.value) == str(want.value)
    with pytest.raises(ex.EvaluationError, match="z2"):
        ex.evaluate(ex.compile_program([Z2]), np.zeros((1, 1), dtype=complex))


def test_compile_and_run_are_iterative():
    # far deeper than the recursion limit: evaluate() would overflow the stack
    e = Z1
    for _ in range(5000):
        e = ex.add(e, ZB1)
    prog = ex.compile_program([e])
    out = ex.evaluate(prog, np.array([[0.5 + 0.25j]]))
    assert abs(out[0, 0] - (0.5 + 0.25j + 5000 * (0.5 - 0.25j))) < 1e-9
    assert prog.n_coords == 1


def test_depth_is_set_at_construction_and_ignored_by_equality():
    assert Z1.depth == ex.ZERO.depth == 1
    assert ex.mul(ex.add(Z1, ZB1), ex.exp(Z2)).depth == 3
    e = Z1
    for _ in range(5000):  # deeper than the recursion limit: depth does not recurse
        e = ex.add(e, ZB1)
    assert e.depth == 5001
    # equal trees built by helpers, operators, shared subtrees and the parser compare and hash equal
    term = ex.mul(Z1, ZB1)
    built = [ex.add(term, ex.mul(Z2, ZB2)), Z1 * ZB1 + Z2 * ZB2, parse_expression("abs2(z)", 2)]
    assert built[0] == built[1] == built[2] and len({hash(b) for b in built}) == 1
    assert all(b.depth == 3 for b in built) and "depth" not in repr(built[0])


def test_signed_zero_constants_stay_distinct():
    neg_zero = ex.Expr("const", value=complex(-0.0, -0.0))
    prog = ex.compile_program([neg_zero, ex.ZERO])
    assert len(prog) == 2
    out = ex.evaluate(prog, np.zeros((1, 1), dtype=complex))
    assert np.signbit(out[0, 0].real) and not np.signbit(out[0, 1].real)


def test_jet_mode_value_column_is_the_plain_run():
    # evaluate(prog, pts, jet=True)[:, 0] is the plain run bit for bit, on every catalog program
    for name in names():
        entry = builtin(name)
        spec, pts = entry.spec, sample_points(entry, 6, 3)
        prog = ex.compile_program([e for row in spec.entries for e in row])
        J = ex.evaluate(prog, pts, jet=True)
        n = spec.n
        assert J.shape == (6, 1 + 2 * n + n * n, n * n)
        assert J[:, 0].tobytes() == ex.evaluate(prog, pts).tobytes(), name
        assert ex.evaluate(prog, pts[2], jet=True).tobytes() == J[2].tobytes(), name
    tree = ex.exp(Z1 * ZB2) / (2 + Z2 * ZB2)
    assert ex.evaluate(tree, _rand_points(2, 4, 5), jet=True).shape == (4, 9)


def test_jet_mode_raises_the_plain_runs_error():
    pts = np.array([[0.5, 1.0], [0.0, 0.0]], dtype=complex)
    for e in (1 / Z1, ex.log(Z2), ex.log(Z1) / Z2, Z1 / ex.log(1 + Z2), ex.log(Z1) * (1 / Z2)):
        prog = ex.compile_program([Z1 * ZB2, e])
        with pytest.raises(ex.EvaluationError) as plain:
            ex.evaluate(prog, pts)
        with pytest.raises(ex.EvaluationError) as jet:
            ex.evaluate(prog, pts, jet=True)
        assert str(jet.value) == str(plain.value)


def test_fd_residual_of_a_program_is_the_max_over_its_roots():
    # the battery's fd-cross-check compiles one program per metric: bit for bit the largest per-entry residual
    cases = []
    for name in names():
        entry = builtin(name)
        cases.append(([e for row in entry.spec.entries for e in row], sample_points(entry, 20, 97)))
    factors = ("0.1*(z1*zbar1 - z2*zbar2)", "0.05*z1*zbar1", "0.1*(z1*zbar2 + z2*zbar1)")
    pts = np.random.default_rng(97).uniform(-0.5, 0.5, size=(20, 6)).view(complex)
    cases.append(([parse_expression(f, 3) for f in factors], pts))
    for roots, pts in cases:
        singles = max(ex.fd_residual(e, pts) for e in roots)
        assert ex.fd_residual(ex.compile_program(roots), pts) == singles


def _scheduled_cases():
    """(name, program, points(m)) for the catalog, the generic metrics, a conformal metric and its factor,
    and programs whose guards and logs fail at some points: at different depths, and guards sharing a pass."""
    cases = []
    for name in names():
        entry = builtin(name)
        cases.append((name, entry.spec.program, lambda m, entry=entry: sample_points(entry, m, 5)))
    for name in ("generic-2", "generic-3"):
        spec = parse_metric((Path(__file__).parent / "data" / f"{name}.metric").read_text(), name=name)
        cases.append((name, spec.program, lambda m, spec=spec: spec.domain.sample(spec.n, m, np.random.default_rng(5))))
    F = parse_expression("-0.5*log(abs2(z))", 2)
    conformal = conformal_metric(builtin("euclidean-2").spec, F)
    cases += [(f"conformal{k}", prog, lambda m: _rand_points(2, m, 5)) for k, prog in
              enumerate([conformal.program, ex.compile_program([F])])]
    # in program order a guard at depth 3, logs at depth 2, then a guard at depth 1
    roots = [ex.exp(Z1) / (Z1 * ZB1 * Z2), ex.log(Z1 + Z2), ex.log(Z1 - Z2), ex.log(Z1 * Z2 + 1) * ZB1, 1 / Z2]
    special = np.array([[0, 0], [1, -1], [0.5, 0.5], [0.5, 0], [0, 0.5], [0.25, 0.25]], dtype=complex)

    def failing(m):
        pts = _rand_points(2, m, 5)
        pts[::3] = special[np.arange(len(pts[::3])) % len(special)]
        return pts

    cases.append(("failing", ex.compile_program(roots), failing))
    cases.append(("failing-reversed", ex.compile_program(roots[::-1]), failing))
    # guards on z1 and on z2 at one depth: one group, whose points fail at either
    guards = [1 / Z1, ZB1 / Z2, Z1 / (Z1 * ZB2), ex.log(Z1 + Z2)]
    cases.append(("failing-guards", ex.compile_program(guards), failing))
    return cases


@pytest.mark.parametrize("m", [1, 4, ex._PASS_ROWS // 3, ex._PASS_ROWS - 1, ex._PASS_ROWS, ex._PASS_ROWS + 1, 300])
def test_the_scheduled_run_is_the_instruction_at_a_time_run(m):
    # the same out and failed bit for bit, and evaluate raises the reason of the first failure in program order
    for name, prog, points in _scheduled_cases():
        pts = points(m)
        for jet in (False, True):
            out, failed = ex._run(prog, pts, jet)
            want_out, want_failed = tape_reference.run(prog, pts, jet)
            assert out.tobytes() == want_out.tobytes() and out.shape == want_out.shape, (name, jet)
            assert np.array_equal(failed, want_failed), (name, jet)
            if np.any(want_failed >= 0):
                with pytest.raises(ex.EvaluationError) as err:
                    ex.evaluate(prog, pts, jet=jet)
                assert str(err.value) == ex._reason(prog, want_failed[want_failed >= 0].min()), name
            if name.startswith("failing") and m == 300:  # points fail at guards and at logs
                assert {ex._reason(prog, s) for s in want_failed[want_failed >= 0]} == {"division by zero", "log of zero"}


def test_the_schedule_groups_one_depth_and_kind_and_frees_each_slot_once():
    prog = builtin("fubini-study-4").spec.program
    depth, last = {}, 0
    for kind, payload, members, _ in prog.schedule:
        for s, a, b in members:
            assert prog.code[s] == (kind, a, b, payload)
            depth[s] = 0 if kind in ("const", "coord", "conj_coord") else 1 + max(depth[a], depth[b] if kind in ex._BINARY else 0)
        assert len(members) == 1 or kind not in ("const", "coord", "conj_coord", "guard")
        assert len({depth[s] for s, _, _ in members}) == 1, kind
        assert depth[members[0][0]] >= last
        last = depth[members[0][0]]
    assert sorted(depth) == list(range(len(prog)))
    assert len([g for g in prog.schedule if g[0] not in ("const", "coord", "conj_coord")]) == 13
    frees = [f for group in prog.schedule for f in group[3]]
    assert len(frees) == len(set(frees)) and not set(frees) & set(prog.outputs)
