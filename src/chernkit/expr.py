"""Expression trees for complex-valued functions of coordinates z_1..z_n.

A holomorphic coordinate ``z_k`` and its conjugate ``zbar_k`` are treated as
independent symbols, so differentiation follows the Wirtinger calculus:

    d z_m / d z_k = delta_mk        d zbar_m / d z_k = 0
    d z_m / d zbar_k = 0            d zbar_m / d zbar_k = delta_mk

and conjugating an expression swaps the two derivative kinds.

Trees are immutable.  Construction goes through the helpers below, which fold
constants and drop additive/multiplicative identities (0*e -> 0, e+0 -> e,
1*e -> e); nothing else is simplified.  Correctness rests on numeric
cross-checks (see :func:`fd_residual`), not on symbolic normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "EvaluationError",
    "const",
    "coord",
    "conj_coord",
    "neg",
    "conj",
    "exp",
    "log",
    "add",
    "sub",
    "mul",
    "div",
    "int_pow",
    "wirtinger_diff",
    "evaluate",
    "Program",
    "compile_program",
    "to_source",
    "fd_residual",
    "max_coord_index",
]

#: division guard: denominators with |d| below this raise EvaluationError
DIV_EPS = 1e-300


class EvaluationError(ValueError):
    """Raised for division by zero or log of zero during evaluation."""


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    kind is one of: const, coord, conj_coord, neg, conj, exp, log, add, sub,
    mul, div, int_pow.  The payload fields value/index/power are only
    meaningful for const, coord/conj_coord and int_pow respectively.
    """

    kind: str
    args: tuple["Expr", ...] = ()
    value: complex = 0j
    index: int = 0  # 1-based coordinate index
    power: int = 0

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, m):
        return int_pow(self, m)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Expr({to_source(self)})"


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


ZERO = Expr("const", value=0j)
ONE = Expr("const", value=1 + 0j)


def const(c) -> Expr:
    return Expr("const", value=complex(c))


def coord(k: int) -> Expr:
    if k < 1:
        raise ValueError("coordinate indices are 1-based")
    return Expr("coord", index=k)


def conj_coord(k: int) -> Expr:
    if k < 1:
        raise ValueError("coordinate indices are 1-based")
    return Expr("conj_coord", index=k)


def _is_const(e: Expr, c=None) -> bool:
    return e.kind == "const" and (c is None or e.value == c)


def neg(e: Expr) -> Expr:
    if _is_const(e):
        return const(-e.value)
    if e.kind == "neg":
        return e.args[0]
    return Expr("neg", (e,))


def conj(e: Expr) -> Expr:
    if _is_const(e):
        return const(e.value.conjugate())
    if e.kind == "conj":
        return e.args[0]
    if e.kind == "coord":
        return conj_coord(e.index)
    if e.kind == "conj_coord":
        return coord(e.index)
    return Expr("conj", (e,))


def exp(e: Expr) -> Expr:
    if _is_const(e):
        return const(np.exp(e.value))
    return Expr("exp", (e,))


def log(e: Expr) -> Expr:
    if _is_const(e):
        if e.value == 0:
            raise EvaluationError("log of zero constant")
        return const(np.log(e.value))
    return Expr("log", (e,))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and abs(b.value) < DIV_EPS:
        raise EvaluationError("division by zero constant")
    if _is_const(a) and _is_const(b):
        return const(a.value / b.value)
    if _is_const(b, 1):
        return a
    return Expr("div", (a, b))


def int_pow(e: Expr, m: int) -> Expr:
    """e**m for integer m; negative exponents desugar to 1/e**(-m)."""
    if not isinstance(m, int):
        raise TypeError("int_pow exponent must be an integer")
    if m == 0:
        return ONE
    if m == 1:
        return e
    if m < 0:
        return div(ONE, int_pow(e, -m))
    if _is_const(e):
        return const(e.value**m)
    return Expr("int_pow", (e,), power=m)


# ---------------------------------------------------------------------------
# Wirtinger differentiation


def wirtinger_diff(e: Expr, kind: str, k: int) -> Expr:
    """Exact symbolic derivative of e, treating z_m and zbar_m as independent.

    kind "holo" is d/dz_k, kind "anti" is d/dzbar_k.  Total on well-formed
    trees; returns an already-folded tree.
    """
    if kind not in ("holo", "anti"):
        raise ValueError(f"derivative kind must be 'holo' or 'anti', got {kind!r}")
    if k < 1:
        raise ValueError("coordinate indices are 1-based")
    return _diff(e, kind, k)


def _diff(e: Expr, kind: str, k: int) -> Expr:
    if e.kind == "const":
        return ZERO
    if e.kind == "coord":
        return ONE if (kind == "holo" and e.index == k) else ZERO
    if e.kind == "conj_coord":
        return ONE if (kind == "anti" and e.index == k) else ZERO
    if e.kind == "neg":
        return neg(_diff(e.args[0], kind, k))
    if e.kind == "conj":
        other = "anti" if kind == "holo" else "holo"
        return conj(_diff(e.args[0], other, k))
    if e.kind == "exp":
        return mul(e, _diff(e.args[0], kind, k))
    if e.kind == "log":
        return div(_diff(e.args[0], kind, k), e.args[0])
    if e.kind == "add":
        return add(_diff(e.args[0], kind, k), _diff(e.args[1], kind, k))
    if e.kind == "sub":
        return sub(_diff(e.args[0], kind, k), _diff(e.args[1], kind, k))
    if e.kind == "mul":
        a, b = e.args
        return add(mul(_diff(a, kind, k), b), mul(a, _diff(b, kind, k)))
    if e.kind == "div":
        a, b = e.args
        num = sub(mul(_diff(a, kind, k), b), mul(a, _diff(b, kind, k)))
        return div(num, int_pow(b, 2))
    if e.kind == "int_pow":
        base, m = e.args[0], e.power
        return mul(mul(const(m), int_pow(base, m - 1)), _diff(base, kind, k))
    raise ValueError(f"unknown node kind {e.kind!r}")


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e, p):
    """Evaluate e at a point (or batch of points) in C^n.

    p has shape (n,) for a single point or (m, n) for a batch; the result is
    a complex scalar or an (m,) array.  zbar_k evaluates to conj(p_k).
    Shared subtrees are evaluated once per call.

    e may also be a :class:`Program`; the result then has one trailing
    column per root, shape (k,) or (m, k), bit-identical to evaluating each
    root as a tree.
    """
    pts = np.asarray(p, dtype=complex)
    if isinstance(e, Program):
        return _run(e, pts) if pts.ndim == 2 else _run(e, pts.reshape(1, -1))[0]
    if pts.ndim == 0:
        pts = pts.reshape(1)
    need = max_coord_index(e)
    if need > pts.shape[-1]:
        raise EvaluationError(
            f"expression references z{need} but the point has {pts.shape[-1]} coordinates"
        )
    return _eval(e, pts, {})


def _eval(e: Expr, pts, memo):
    got = memo.get(id(e))
    if got is not None:
        return got
    kind = e.kind
    if kind == "const":
        v = e.value
    elif kind == "coord":
        v = pts[..., e.index - 1]
    elif kind == "conj_coord":
        v = np.conj(pts[..., e.index - 1])
    elif kind == "neg":
        v = -_eval(e.args[0], pts, memo)
    elif kind == "conj":
        v = np.conj(_eval(e.args[0], pts, memo))
    elif kind == "exp":
        v = np.exp(_eval(e.args[0], pts, memo))
    elif kind == "log":
        a = _eval(e.args[0], pts, memo)
        if np.any(np.abs(a) < DIV_EPS):
            raise EvaluationError("log of zero")
        v = np.log(a)
    elif kind == "add":
        v = _eval(e.args[0], pts, memo) + _eval(e.args[1], pts, memo)
    elif kind == "sub":
        v = _eval(e.args[0], pts, memo) - _eval(e.args[1], pts, memo)
    elif kind == "mul":
        v = _eval(e.args[0], pts, memo) * _eval(e.args[1], pts, memo)
    elif kind == "div":
        b = _eval(e.args[1], pts, memo)
        if np.any(np.abs(b) < DIV_EPS):
            raise EvaluationError("division by zero")
        v = _eval(e.args[0], pts, memo) / b
    elif kind == "int_pow":
        v = _eval(e.args[0], pts, memo) ** e.power
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    memo[id(e)] = v
    return v


def max_coord_index(e: Expr) -> int:
    """Largest coordinate index referenced anywhere in the tree (0 if none)."""
    best, seen, stack = 0, set(), [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if x.kind in ("coord", "conj_coord"):
            best = max(best, x.index)
        stack.extend(x.args)
    return best


# ---------------------------------------------------------------------------
# Compiled evaluation: one hash-consed straight-line program for many trees
#
# compile_program interns every node of its roots by (kind, child slots,
# payload), so a subtree shared structurally by several trees becomes one
# instruction (Filliatre & Conchon, "Type-Safe Modular Hash-Consing", 2006),
# and lists the instructions in evaluation order: a straight-line tape in the
# sense of Griewank & Walther, "Evaluating Derivatives" (2008).  evaluate()
# runs the tape over a flat slot array.  Each instruction performs the
# same numpy operation on the same operands as _eval, so the outputs are
# bit-identical to evaluate() on every root.

_LEAVES = frozenset({"const", "coord", "conj_coord"})
_UNARY = frozenset({"neg", "conj", "exp", "log", "int_pow"})
_BINARY = frozenset({"add", "sub", "mul", "div"})
_VISIT, _GUARD, _EMIT = 0, 1, 2


@dataclass(frozen=True)
class Program:
    """A straight-line program evaluating several expression trees at once.

    ``code[s]`` is ``(kind, a, b, payload)`` and fills slot s from the earlier
    slots a and b.  Besides the Expr kinds there is ``guard``, the
    division-by-zero test of a denominator.  ``frees[s]`` lists the slots that
    ``code[s]`` reads for the last time; ``outputs`` holds the slot of each
    root, in the order the roots were given.
    """

    code: tuple
    frees: tuple
    outputs: tuple
    n_coords: int

    def __len__(self) -> int:
        return len(self.code)


def _payload(e: Expr):
    """(payload the runner uses, its interning key) of one node."""
    if e.kind == "const":
        # float.hex tells -0.0 from 0.0, which compare equal
        return e.value, (e.value.real.hex(), e.value.imag.hex())
    if e.kind in ("coord", "conj_coord"):
        return e.index - 1, e.index
    if e.kind == "int_pow":
        return e.power, e.power
    if e.kind in _UNARY or e.kind in _BINARY:
        return None, None
    raise ValueError(f"unknown node kind {e.kind!r}")


def compile_program(roots) -> Program:
    """Compile expression trees into one interned straight-line Program.

    Instructions follow _eval's order: children left to right, except that a
    division evaluates and guards its denominator before its numerator, so
    evaluate raises the same EvaluationError as evaluating the roots one
    after another.  The traversal is iterative: tree depth is not limited by
    the Python stack.
    """
    roots = list(roots)  # slot_of is keyed by id(): keep every node alive
    code, interned, slot_of, guarded, outputs = [], {}, {}, set(), []
    for root in roots:
        stack = [(root, _VISIT)]
        while stack:
            e, step = stack.pop()
            if step == _VISIT:
                if id(e) in slot_of:
                    continue
                stack.append((e, _EMIT))
                if e.kind == "div":
                    num, den = e.args
                    stack += [(num, _VISIT), (den, _GUARD), (den, _VISIT)]
                else:
                    stack += [(c, _VISIT) for c in reversed(e.args)]
            elif step == _GUARD:
                s = slot_of[id(e)]
                if s not in guarded:
                    guarded.add(s)
                    code.append(("guard", s, 0, None))
            else:
                payload, pkey = _payload(e)
                a = slot_of[id(e.args[0])] if e.args else 0
                b = slot_of[id(e.args[1])] if len(e.args) > 1 else 0
                key = (e.kind, a, b, pkey)
                s = interned.get(key)
                if s is None:
                    s = interned[key] = len(code)
                    code.append((e.kind, a, b, payload))
                slot_of[id(e)] = s
        outputs.append(slot_of[id(root)])

    last_use = {}
    for i, (kind, a, b, _) in enumerate(code):
        if kind in _BINARY:
            last_use[a] = last_use[b] = i
        elif kind not in _LEAVES:  # unary or guard
            last_use[a] = i
    for s in outputs:  # roots stay live until the runner collects them
        last_use.pop(s, None)
    frees = [[] for _ in code]
    for s, i in last_use.items():
        frees[i].append(s)
    n_coords = max((p + 1 for k, _, _, p in code if k in ("coord", "conj_coord")), default=0)
    return Program(tuple(code), tuple(map(tuple, frees)), tuple(outputs), n_coords)


def _run(prog: Program, pts: np.ndarray) -> np.ndarray:
    """prog at (m, n) points: an (m, len(prog.outputs)) array, column j for root j."""
    if prog.n_coords > pts.shape[1]:
        raise EvaluationError(
            f"expression references z{prog.n_coords} but the point has {pts.shape[1]} coordinates"
        )
    vals = [None] * len(prog.code)
    for s, ((kind, a, b, payload), free) in enumerate(zip(prog.code, prog.frees)):
        if kind == "mul":
            v = vals[a] * vals[b]
        elif kind == "sub":
            v = vals[a] - vals[b]
        elif kind == "div":
            v = vals[a] / vals[b]
        elif kind == "neg":
            v = -vals[a]
        elif kind == "add":
            v = vals[a] + vals[b]
        elif kind == "int_pow":
            v = vals[a] ** payload
        elif kind == "guard":
            if np.any(np.abs(vals[a]) < DIV_EPS):
                raise EvaluationError("division by zero")
            v = None
        elif kind == "const":
            v = payload
        elif kind == "coord":
            v = pts[..., payload]
        elif kind == "conj_coord":
            v = np.conj(pts[..., payload])
        elif kind == "conj":
            v = np.conj(vals[a])
        elif kind == "exp":
            v = np.exp(vals[a])
        else:  # log
            x = vals[a]
            if np.any(np.abs(x) < DIV_EPS):
                raise EvaluationError("log of zero")
            v = np.log(x)
        vals[s] = v
        for f in free:
            vals[f] = None
    out = np.empty((pts.shape[0], len(prog.outputs)), dtype=complex)
    for j, s in enumerate(prog.outputs):
        out[:, j] = vals[s]
    return out


# ---------------------------------------------------------------------------
# Printing (inverse of the DSL expression grammar)

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 10, 20, 25, 30, 40


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _render(e: Expr):
    """Return (text, precedence) for e."""
    kind = e.kind
    if kind == "const":
        re_, im_ = e.value.real, e.value.imag
        if im_ == 0:
            s = _fmt_real(re_)
            return s, (_PREC_UNARY if s.startswith("-") else _PREC_ATOM)
        if re_ == 0:
            s = _fmt_real(im_) + "i"
            return s, (_PREC_UNARY if s.startswith("-") else _PREC_ATOM)
        sign = "+" if im_ >= 0 else "-"
        return f"({_fmt_real(re_)}{sign}{_fmt_real(abs(im_))}i)", _PREC_ATOM
    if kind == "coord":
        return f"z{e.index}", _PREC_ATOM
    if kind == "conj_coord":
        return f"zbar{e.index}", _PREC_ATOM
    if kind == "neg":
        return "-" + _child(e.args[0], _PREC_MUL), _PREC_UNARY
    if kind in ("conj", "exp", "log"):
        return f"{kind}({_render(e.args[0])[0]})", _PREC_ATOM
    if kind == "add":
        return f"{_child(e.args[0], _PREC_ADD)} + {_child(e.args[1], _PREC_ADD)}", _PREC_ADD
    if kind == "sub":
        return f"{_child(e.args[0], _PREC_ADD)} - {_child(e.args[1], _PREC_MUL)}", _PREC_ADD
    if kind == "mul":
        return f"{_child(e.args[0], _PREC_MUL)}*{_child(e.args[1], _PREC_MUL)}", _PREC_MUL
    if kind == "div":
        return f"{_child(e.args[0], _PREC_MUL)}/{_child(e.args[1], _PREC_UNARY)}", _PREC_MUL
    if kind == "int_pow":
        return f"{_child(e.args[0], _PREC_ATOM)}^{e.power}", _PREC_POW
    raise ValueError(f"unknown node kind {kind!r}")


def _child(e: Expr, need: int) -> str:
    text, prec = _render(e)
    return f"({text})" if prec < need else text


def to_source(e: Expr) -> str:
    """Render e in the metric-DSL expression syntax.

    Round-trips through the parser to an evaluation-equivalent tree.
    """
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Finite-difference cross-validation


def fd_residual(e: Expr, p, h: float = 1e-5) -> float:
    """Max deviation between symbolic and central-difference Wirtinger derivatives.

    For every coordinate k present at the point, compares wirtinger_diff
    against 0.5*(d/dx_k -/+ i d/dy_k) central differences of step h.  Used as
    a validation residual; h must be > 0 and p interior with margin >= 2h.
    p may be one point (n,) or a batch (m, n); a batch derives each
    derivative once and returns the maximum over its points.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    pt = np.asarray(p, dtype=complex)
    n = pt.shape[-1]
    worst = 0.0
    for k in range(1, n + 1):
        ek = np.zeros(n, dtype=complex)
        ek[k - 1] = 1.0
        fx = (evaluate(e, pt + h * ek) - evaluate(e, pt - h * ek)) / (2 * h)
        fy = (evaluate(e, pt + 1j * h * ek) - evaluate(e, pt - 1j * h * ek)) / (2 * h)
        fd_holo = 0.5 * (fx - 1j * fy)
        fd_anti = 0.5 * (fx + 1j * fy)
        sym_holo = evaluate(wirtinger_diff(e, "holo", k), pt)
        sym_anti = evaluate(wirtinger_diff(e, "anti", k), pt)
        worst = max(worst, np.max(np.abs(sym_holo - fd_holo)), np.max(np.abs(sym_anti - fd_anti)))
    return float(worst)
