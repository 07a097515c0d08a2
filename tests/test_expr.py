"""Expression trees: Wirtinger calculus, evaluation, printing, FD cross-checks."""

import numpy as np
import pytest

from chernkit import expr as ex
from chernkit.catalog import builtin, sample_points
from chernkit.dsl import parse_expression

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
    assert ex.fd_residual(Z1 * Z1, np.array([1 + 1j, 0.0]), 1e-5) < 1e-8
    assert ex.fd_residual(ex.log(1 + Z1 * ZB1), np.array([0.3, 0.0]), 1e-5) < 1e-6
    assert ex.fd_residual(ex.const(5), np.array([0.2 + 0.1j]), 1e-5) < 1e-12
    with pytest.raises(ValueError):
        ex.fd_residual(Z1, np.array([0.0]), -1e-5)


def test_fd_residual_generic_trees():
    e = ex.exp(Z1 * ZB2) / (2 + Z2 * ZB2) + ex.conj(ex.log(3 + Z1 * ZB1))
    for p in _rand_points(2, 5, 7):
        assert ex.fd_residual(e, p, 1e-5) < 1e-6


def test_fd_residual_batch_is_the_max_over_points():
    cases = [(ex.exp(Z1 * ZB2) / (2 + Z2 * ZB2) + ex.conj(ex.log(3 + Z1 * ZB1)), _rand_points(2, 20, 8))]
    entry = builtin("adm-product-surface")
    pts = sample_points(entry, 20, 9)
    cases += [(e, pts) for row in entry.spec.entries for e in row if e != ex.ZERO]
    cases.append((ex.const(5), pts))
    for e, pts in cases:
        singles = max(ex.fd_residual(e, p, 1e-5) for p in pts)
        assert abs(ex.fd_residual(e, pts, 1e-5) - singles) <= 1e-12


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
        assert np.array_equal(out[:, j], np.broadcast_to(ex.evaluate(e, pts), (9,))), j


def test_compiled_program_guards_match_tree_evaluation():
    pts = np.array([[0.5, 1.0], [0.0, 0.0]], dtype=complex)
    cases = [1 / Z1, ex.log(Z2), ex.log(Z1) / Z2, Z1 / ex.log(1 + Z2)]
    for e in cases:
        with pytest.raises(ex.EvaluationError) as want:
            ex.evaluate(e, pts)
        with pytest.raises(ex.EvaluationError) as got:
            ex.evaluate(ex.compile_program([e]), pts)
        assert str(got.value) == str(want.value)
    with pytest.raises(ex.EvaluationError, match="z2"):
        ex.evaluate(ex.compile_program([Z2]), np.zeros((1, 1), dtype=complex))


def test_compile_and_run_are_iterative():
    # far deeper than the recursion limit: evaluate() would overflow the stack
    e = Z1
    for _ in range(5000):
        e = ex.add(e, ZB1)
    out = ex.evaluate(ex.compile_program([e]), np.array([[0.5 + 0.25j]]))
    assert abs(out[0, 0] - (0.5 + 0.25j + 5000 * (0.5 - 0.25j))) < 1e-9
    assert ex.max_coord_index(e) == 1


def test_signed_zero_constants_stay_distinct():
    neg_zero = ex.Expr("const", value=complex(-0.0, -0.0))
    prog = ex.compile_program([neg_zero, ex.ZERO])
    assert len(prog) == 2
    out = ex.evaluate(prog, np.zeros((1, 1), dtype=complex))
    assert np.signbit(out[0, 0].real) and not np.signbit(out[0, 1].real)
