"""A plain recursive evaluator of expression trees.

It applies one numpy operation per node, as the package's evaluator did
before trees were evaluated through compiled programs, and serves the tests
as the reference the compiled runs must match bit for bit.
"""

import numpy as np

from chernkit import expr as ex

_OPS = {
    "neg": np.negative,
    "conj": np.conj,
    "exp": np.exp,
    "log": np.log,
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
}


def walk(e, pts):
    """e at the (m, n) points pts: a scalar for a constant tree, else an (m,) array.

    Raises EvaluationError like expr.evaluate: a denominator is evaluated and
    tested before its numerator.
    """
    if e.kind == "const":
        return e.value
    if e.kind in ("coord", "conj_coord"):
        x = pts[:, e.index - 1]
        return x if e.kind == "coord" else np.conj(x)
    if e.kind == "div":
        b = walk(e.args[1], pts)
        if np.any(np.abs(b) < ex.DIV_EPS):
            raise ex.EvaluationError("division by zero")
        return walk(e.args[0], pts) / b
    args = [walk(x, pts) for x in e.args]
    if e.kind == "log" and np.any(np.abs(args[0]) < ex.DIV_EPS):
        raise ex.EvaluationError("log of zero")
    return args[0] ** e.power if e.kind == "int_pow" else _OPS[e.kind](*args)
