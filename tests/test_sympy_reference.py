"""The catalog's metric jets against sympy's derivatives of the same trees.

Each catalog entry's Expr tree is rebuilt in sympy with z_k and zbar_k as
independent symbols (the Wirtinger convention of chernkit.expr); sympy then
differentiates g and the result is compared with metric_jets at seeded points.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from chernkit.catalog import builtin, names, sample_points  # noqa: E402
from chernkit.jets import metric_jets  # noqa: E402

_UNARY = {"neg": lambda a: -a, "exp": sympy.exp, "log": sympy.log}
_BINARY = {"add": sympy.Add, "sub": lambda a, b: a - b, "mul": sympy.Mul, "div": lambda a, b: a / b}


def _to_sympy(e, z, zb, flip=False):
    """e as a sympy expression in z and zb; flip conjugates it (z <-> zbar, conjugate constants)."""
    if e.kind == "const":
        c = np.conj(e.value) if flip else e.value
        return sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)  # the floats' exact values
    if e.kind in ("coord", "conj_coord"):
        return (zb if (e.kind == "coord") == flip else z)[e.index - 1]
    if e.kind == "conj":
        return _to_sympy(e.args[0], z, zb, not flip)
    args = [_to_sympy(a, z, zb, flip) for a in e.args]
    if e.kind == "int_pow":
        return args[0] ** e.power
    return (_UNARY.get(e.kind) or _BINARY[e.kind])(*args)


@pytest.mark.parametrize("name", names())
def test_catalog_jets_match_sympy(name):
    spec = builtin(name).spec
    n = spec.n
    z, zb = sympy.symbols(f"z1:{n + 1}"), sympy.symbols(f"zb1:{n + 1}")
    g = [[_to_sympy(spec.entries[k][l], z, zb) for l in range(n)] for k in range(n)]
    d = [sympy.diff(g[k][l], z[i]) for i in range(n) for k in range(n) for l in range(n)]
    dbar = [sympy.diff(g[k][l], zb[j]) for j in range(n) for k in range(n) for l in range(n)]
    ddbar = [sympy.diff(d[(i * n + k) * n + l], zb[j]) for i in range(n) for j in range(n) for k in range(n) for l in range(n)]
    tables = sympy.lambdify([*z, *zb], [d, dbar, ddbar], modules="numpy", cse=True)
    pts = sample_points(builtin(name), 3, 60)
    jets = metric_jets(spec, pts)
    for m, p in enumerate(pts):
        for got, want in zip((jets.dg[m], jets.dbar_g[m], jets.ddbar_g[m]), tables(*p, *np.conj(p))):
            want = np.asarray(want, dtype=complex).reshape(got.shape)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name
