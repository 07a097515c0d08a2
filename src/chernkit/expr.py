"""Expression trees for complex-valued functions of coordinates z_1..z_n.

A holomorphic coordinate ``z_k`` and its conjugate ``zbar_k`` are treated as
independent symbols, so differentiation follows the Wirtinger calculus:

    d z_m / d z_k = delta_mk        d zbar_m / d z_k = 0
    d z_m / d zbar_k = 0            d zbar_m / d zbar_k = delta_mk

and conjugating an expression swaps the two derivative kinds.

Trees are immutable.  Construction goes through the helpers below, which fold
constants and drop additive/multiplicative identities (0*e -> 0, e+0 -> e,
1*e -> e); nothing else is simplified.

:func:`compile_program` interns trees into one straight-line program, and
:func:`evaluate` runs it, for a single tree too.  With ``jet=True`` the same
run carries, with each value, every d_i, dbar_j and d_i dbar_j (forward-mode
Wirtinger jets); that is how the package differentiates.
:func:`wirtinger_diff` builds the exact symbolic derivative tree and is the
reference the jets are tested against.  Correctness rests on numeric
cross-checks (see :func:`fd_residual`), not on symbolic normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    depth is the tree's depth (a leaf has 1), set at construction from the
    arguments' depths; it takes no part in equality or hashing.
    """

    kind: str
    args: tuple["Expr", ...] = ()
    value: complex = 0j
    index: int = 0  # 1-based coordinate index
    power: int = 0
    depth: int = field(default=1, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.args:
            object.__setattr__(self, "depth", 1 + max(a.depth for a in self.args))

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


def evaluate(e, p, jet: bool = False):
    """Evaluate e at a point (or batch of points) in C^n.

    p has shape (n,) for a single point or (m, n) for a batch; the result is
    a complex scalar or an (m,) array (any leading axes are kept, as for a
    batch).  zbar_k evaluates to conj(p_k).
    A tree is compiled (:func:`compile_program`) and run like any program,
    so shared subtrees are evaluated once per call.

    e may also be a :class:`Program`; the result then has one trailing
    column per root, shape (k,) or (m, k), bit-identical to evaluating each
    root on its own.
    With jet on, each result is its jet (see _run), shape (..., 1 + 2n + n^2)
    or (..., 1 + 2n + n^2, k), whose value column is the plain result bit for bit.
    """
    pts = np.asarray(p, dtype=complex)
    prog = e if isinstance(e, Program) else compile_program([e])
    out, failed = _run(prog, pts.reshape(-1, pts.shape[-1] if pts.ndim else 1), jet)
    if np.any(failed >= 0):
        raise EvaluationError(_reason(prog, failed[failed >= 0].min()))
    out = out.reshape(pts.shape[:-1] + out.shape[1:])
    return out if prog is e else out[..., 0][()]


# ---------------------------------------------------------------------------
# Compiled evaluation: one hash-consed straight-line program for many trees
#
# compile_program interns every node of its roots by (kind, child slots,
# payload), so a subtree shared structurally by several trees becomes one
# instruction (Filliatre & Conchon, "Type-Safe Modular Hash-Consing", 2006),
# and lists the instructions in evaluation order: a straight-line tape in the
# sense of Griewank & Walther, "Evaluating Derivatives" (2008).  It also
# schedules the tape by depth: the instructions of one depth and one kind
# read only shallower slots, so _run evaluates each such group in one numpy
# pass over their stacked rows.  A jet step costs mostly its numpy calls at a
# few points, and the entries of a metric repeat one template, so the 50
# arithmetic instructions of fubini-study-4 take 11 passes.  Every row gets the
# arithmetic of its own instruction, so a root's outputs do not depend on the
# other roots.

_LEAVES = frozenset({"const", "coord", "conj_coord"})
_UNARY = frozenset({"neg", "conj", "exp", "log", "int_pow"})
_BINARY = frozenset({"add", "sub", "mul", "div"})
_VISIT, _GUARD, _EMIT = 0, 1, 2


@dataclass(frozen=True)
class Program:
    """A straight-line program evaluating several expression trees at once.

    ``code[s]`` is ``(kind, a, b, payload)`` and fills slot s from the earlier
    slots a and b.  Besides the Expr kinds there is ``guard``, the
    division-by-zero test of a denominator.  ``outputs`` holds the slot of
    each root, in the order the roots were given.

    ``schedule`` is the order _run follows: groups ``(kind, payload, members,
    frees)``, one depth after another, with ``members`` the ``(s, a, b)`` of
    each instruction in the group.  A leaf has depth 0 and any other
    instruction 1 + the largest depth of its operands.  A group holds the
    instructions of one depth, one kind and one payload key (int_pow's
    power), in program order: guards of one depth share a group, and a leaf,
    being interned, is a group of its own.  ``frees`` lists the slots whose
    last reader is in the group, roots excepted; an operand that no step
    reads (a leaf's, a unary's b, a guard's b) is slot 0, a leaf, which so
    may stay live longer.
    """

    code: tuple
    schedule: tuple
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

    Instructions list each node after its children, left to right, except
    that a division evaluates and guards its denominator before its
    numerator, so evaluate raises the same EvaluationError as evaluating the
    roots one after another.  The traversal is iterative: tree depth is not
    limited by the Python stack.  It also gives each instruction its depth
    and group (see Program); one pass over all operands then finds the frees.
    """
    roots = list(roots)  # slot_of is keyed by id(): keep every node alive
    code, interned, slot_of, outputs = [], {}, {}, []
    depth, groups = [], {}  # groups maps (depth, kind, payload key) to its members (s, a, b)
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
                continue
            if step == _GUARD:
                kind, a, b, payload, pkey = "guard", slot_of[id(e)], 0, None, None
            else:
                kind, (payload, pkey) = e.kind, _payload(e)
                a = slot_of[id(e.args[0])] if e.args else 0
                b = slot_of[id(e.args[1])] if len(e.args) > 1 else 0
            key = (kind, a, b, pkey)
            s = interned.get(key)
            if s is None:
                s = interned[key] = len(code)
                depth.append(0 if kind in _LEAVES else 1 + max(depth[a], depth[b]))
                groups.setdefault((depth[s], kind, pkey), []).append((s, a, b))
                code.append((kind, a, b, payload))
            if step == _EMIT:
                slot_of[id(e)] = s
        outputs.append(slot_of[id(root)])

    # sorted is stable: the groups of one depth keep the order of their first instruction
    order = sorted(groups.values(), key=lambda members: depth[members[0][0]])
    last_use = {}
    for i, members in enumerate(order):
        for _, a, b in members:  # an unread operand is slot 0, always a leaf
            last_use[a] = last_use[b] = i
    for s in outputs:  # roots stay live until the runner collects them
        last_use.pop(s, None)
    frees = [[] for _ in order]
    for s, i in last_use.items():
        frees[i].append(s)
    schedule = tuple(
        (code[members[0][0]][0], code[members[0][0]][3], tuple(members), tuple(free)) for members, free in zip(order, frees)
    )
    n_coords = max((p + 1 for k, _, _, p in code if k in ("coord", "conj_coord")), default=0)
    return Program(tuple(code), schedule, tuple(outputs), n_coords)


_REASONS = {"guard": "division by zero", "log": "log of zero"}

#: the most rows one shared pass of _run stacks.  A jet step costs mostly
#: its numpy calls at a few rows and its arithmetic at many; past about this
#: many rows, a pass's copies and its larger working set cost more than the
#: calls it saves
_PASS_ROWS = 256


def _reason(prog: Program, slot: int) -> str:
    """Why the guard or log in prog's slot failed."""
    return _REASONS[prog.code[slot][0]]


def _mark(failed: np.ndarray, bad, slot: int):
    """Record slot as the failure of each point where bad holds, unless the point failed at an earlier slot."""
    if np.any(bad):
        failed[bad & ((failed < 0) | (failed > slot))] = slot


def _rows(jets: list, m: int) -> np.ndarray:
    """The jets stacked into one array, m rows each: a constant's single row is repeated."""
    return np.concatenate([J if len(J) == m else np.broadcast_to(J, (m, J.shape[1])) for J in jets])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _run(prog: Program, pts: np.ndarray, jet: bool = False) -> tuple:
    """prog at (m, n) points: (out, failed).

    out is an (m, len(prog.outputs)) array, column j for root j.  failed[k]
    is the slot of the first guard or log, in program order, that failed at
    point k, or -1.  A failed point does not stop the run: its later values
    may be inf or nan, and the other points are unaffected.

    Each slot holds a jet (see _step).  With jet off it is the value alone;
    with jet on it carries the derivatives too, and out has shape
    (m, 1 + 2n + n^2, len(prog.outputs)): per root the value, d_i, dbar_j and
    d_i dbar_j (C order over (i, j)).  The value column is the same either way.

    The run follows prog.schedule.  A group of one runs _step on its
    operands; a larger group runs it once on their stacked rows, at most
    _PASS_ROWS of them a pass, and each slot gets its own m rows.  Either
    way a guard or log marks its failed points, and a guard runs no _step.
    _step acts row by row, so every slot holds what it would hold alone.
    With the jet off a step is a numpy call or two, no more than the
    stacking costs, so each instruction is a pass of its own.
    """
    m, n = pts.shape
    if prog.n_coords > n:
        raise EvaluationError(f"expression references z{prog.n_coords} but the point has {n} coordinates")
    vals, failed, d = [None] * len(prog.code), np.full(m, -1), n if jet else 0
    per_pass = max(1, _PASS_ROWS // m) if jet else 1
    for kind, payload, members, free in prog.schedule:
        if len(members) == 1 or per_pass == 1:
            for s, a, b in members:
                if kind == "guard" or kind == "log":
                    _mark(failed, np.abs(vals[a][:, 0]) < DIV_EPS, s)
                if kind != "guard":
                    vals[s] = _step(kind, vals[a], vals[b], payload, pts, d)
        else:
            for i in range(0, len(members), per_pass):
                chunk = members[i : i + per_pass]
                Ja = _rows([vals[a] for _, a, _ in chunk], m)
                Jb = _rows([vals[b] for _, _, b in chunk], m) if kind in _BINARY else None
                if kind == "guard" or kind == "log":
                    for (s, _, _), bad in zip(chunk, (np.abs(Ja[:, 0]) < DIV_EPS).reshape(-1, m)):
                        _mark(failed, bad, s)
                if kind != "guard":
                    J = _step(kind, Ja, Jb, payload, pts, d)
                    for j, (s, _, _) in enumerate(chunk):
                        vals[s] = J[j * m : (j + 1) * m]
        for f in free:
            vals[f] = None
    out = np.empty((m, 1 + 2 * d + d * d, len(prog.outputs)), dtype=complex)
    for j, s in enumerate(prog.outputs):
        out[..., j] = vals[s]
    return (out if jet else out[:, 0]), failed


# Wirtinger jets: truncated Taylor mode (Griewank & Walther, "Evaluating
# Derivatives", 2008, ch. 13), the mixed d_i dbar_j part carried as in
# hyper-dual numbers (Fike & Alonso, AIAA 2011-886).  A jet in n coordinates
# is an (m or 1, 1 + 2n + n^2) array: value, d_i, dbar_j, d_i dbar_j; n = 0
# keeps the value alone, whose column always takes the plain numpy operation.


def _cross(A, B, n: int):
    """The rows' d_i A * dbar_j B, as an (m, n^2) table in C order over (i, j)."""
    return (A[:, 1 : n + 1, None] * B[:, None, n + 1 : 2 * n + 1]).reshape(max(len(A), len(B)), n * n)


def _step(kind: str, A, B, payload, pts, n: int):
    """The jet of one instruction on the jets A and B, in n coordinates."""
    if kind in _LEAVES:
        J = np.zeros((1 if kind == "const" else len(pts), 1 + 2 * n + n * n), dtype=complex)
        x = payload if kind == "const" else pts[:, payload]
        J[:, 0] = np.conj(x) if kind == "conj_coord" else x
        if kind != "const" and n:
            J[:, 1 + payload + (n if kind == "conj_coord" else 0)] = 1
        return J
    if kind == "add":
        return A + B
    if kind == "sub":
        return A - B
    if kind == "neg":
        return -A
    a, p = A[:, 0], payload
    if kind == "mul":
        v = a * B[:, 0]
    elif kind == "div":
        v = a / B[:, 0]
    elif kind == "conj":
        v = np.conj(a)
    elif kind == "exp":
        v = np.exp(a)
    elif kind == "log":
        v = np.log(a)
    else:  # int_pow, p >= 2
        v = a**p
    if not n:
        return v[:, None]
    mixed = slice(2 * n + 1, None)
    if kind == "mul":  # product rule, plus the cross terms a_i b_jbar + b_i a_jbar
        J = A * B[:, :1] + A[:, :1] * B
        J[:, mixed] += _cross(A, B, n) + _cross(B, A, n)
    elif kind == "div":  # from A = Q B: Q' = (A' - Q B') / B, then the mixed part likewise
        J = (A - v[:, None] * B) / B[:, :1]
        J[:, mixed] -= (_cross(J, B, n) + _cross(B, J, n)) / B[:, :1]
    elif kind == "conj":  # swap d with dbar; d_i dbar_j conj(A) = conj(d_j dbar_i A)
        r = range(n)
        perm = [0, *(1 + n + i for i in r), *(1 + i for i in r), *(1 + 2 * n + j * n + i for i in r for j in r)]
        return np.conj(A[:, perm])
    else:  # chain rule: f'(a) a' and f'(a) a_ij + f''(a) a_i a_jbar
        if kind == "exp":
            f1 = f2 = v
        elif kind == "log":
            f1 = 1 / a
            f2 = -f1 * f1
        else:
            f1, f2 = p * a ** (p - 1), p * (p - 1.0) * a ** (p - 2)  # a float p(p - 1): p may be huge
        J = A * f1[:, None]
        J[:, mixed] += f2[:, None] * _cross(A, A, n)
    J[:, 0] = v
    return J


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


_FD_STEP = 1e-5  # the central differences' step h


def fd_residual(e, p) -> float:
    """Max deviation between jet and central-difference Wirtinger derivatives.

    For every coordinate k present at the point, compares the d_k and dbar_k
    columns of e's jet run, the derivatives the curvature kernels consume,
    against 0.5*(d/dx_k -/+ i d/dy_k) central differences of step h =
    _FD_STEP.  Used as a validation residual; p must be interior with margin >= 2h.
    p is one point, shape (n,), or a batch, shape (m, n); the result is the
    maximum over the batch.  e may also be a :class:`Program`, and the
    result is then the maximum over its roots, bit-identical to the largest
    of the roots' own residuals.  One program serves both runs: its jet run
    over the batch, and its plain run over all 4n shifted copies of it.
    """
    h = _FD_STEP
    pts = np.atleast_2d(np.asarray(p, dtype=complex))
    m, n = pts.shape
    prog = e if isinstance(e, Program) else compile_program([e])
    J = evaluate(prog, pts, jet=True)
    sym = np.moveaxis(J[:, 1 : 2 * n + 1], 0, 1).reshape(2, n, m, -1)
    hx, hy = h * np.eye(n, dtype=complex), 1j * h * np.eye(n, dtype=complex)
    shifted = [pts + d for d in hx] + [pts - d for d in hx] + [pts + d for d in hy] + [pts - d for d in hy]
    f = evaluate(prog, np.concatenate(shifted)).reshape(4, n, m, -1)
    fx = (f[0] - f[1]) / (2 * h)
    fy = (f[2] - f[3]) / (2 * h)
    fd = np.stack([0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)])
    return float(np.max(np.abs(sym - fd)))
