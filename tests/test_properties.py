"""Property-based checks of the compiled evaluation path on random expression trees.

Trees are drawn over z1..z3.  Every log and every denominator has the form
c + e*conj(e) with c >= 1, so no draw hits a pole or a branch cut.  Draws whose
values leave [-1e4, 1e4] (nested exp and powers can overflow) are discarded.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chernkit import expr as ex  # noqa: E402
from chernkit.dsl import parse_expression  # noqa: E402

N = 3
PTS = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4, 2 * N)).view(complex)
FD_TOL = 1e-6  # relative to max(1, max |e|) at PTS
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=150)


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
        want = np.stack([np.broadcast_to(ex.evaluate(e, PTS), (len(PTS),)) for e in roots], axis=1)
    assert out.tobytes() == want.tobytes()


@DETERMINISTIC
@given(trees)
def test_fd_residual_stays_under_tolerance(e):
    values = _values(e)
    assume(values is not None)
    with np.errstate(all="ignore"):
        residual = ex.fd_residual(e, PTS, 1e-5)
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
