"""The metric definition language.

Line-oriented, UTF-8, ``#`` starts a comment.  Statements::

    dim N
    let name = expr            # named sub-expression, usable below
    g[i,j] = expr              # 1-based; omitted entries are 0
    domain ball R | annulus R1 R2 | polydisc R | product D1; D2; ...

Expressions: number literals with an optional imaginary suffix ``i``
(so ``2-3i`` is a complex constant), coordinates ``z1..zN`` and
``zbar1..zbarN``, the builtin ``abs2(z)`` = sum z_k*zbar_k (``abs2(e)`` for a
general argument is e*conj(e)), functions ``conj``, ``exp``, ``log``,
operators ``+ - * / ^`` with integer powers, and parentheses.

A ``;`` separates statements on one line, except after ``domain product``
where it separates the per-coordinate factors.

Tokens: a digit is a decimal digit, as ``float`` and ``int`` read it (``3``
or the Arabic-Indic ``٣``).  A number is digits and dots, starting with
a digit or a dot before a digit, with an optional exponent ``e[+-]digits``.
A name starts with a letter, ``_`` or a non-decimal numeral (``²``, ``½``)
and goes on with letters, digits, numerals or ``_``, so ``z²`` is a name,
not a coordinate, and ``5²`` is the number 5 followed by the name ``²``.

An expression may nest at most :data:`MAX_DEPTH` levels, counting both the
depth of its tree (``let`` names substituted) and the nesting of brackets.
Deeper input is a :class:`DslError`.  Evaluation and differentiation run
compiled programs and do not recurse, but the printer, tree equality and
hashing, and the symbolic reference derivative do, and the limit keeps them
well inside Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .domains import Annulus, Ball, Domain, Polydisc, Product

__all__ = ["MetricSpec", "DslError", "parse_metric", "parse_expression", "print_metric"]

#: deepest expression tree, and deepest bracket nesting, the parser accepts
MAX_DEPTH = 100

_KEYWORDS = {"dim", "let", "g", "domain", "ball", "annulus", "polydisc", "product"}
_FUNCS = {"conj": ex.conj, "exp": ex.exp, "log": ex.log}

# One token per match: \d is a decimal digit, \w a letter, digit, numeral or "_".
_TOKEN = re.compile(
    r"(?P<NUM>(?:\d|\.(?=\d))[\d.]*(?:[eE][+-]?\d+)?)(?P<IMAG>i(?!\w))?"  # IMAG: a lone i follows
    r"|(?P<IDENT>[^\W\d]\w*)"
    r"|(?P<op>[=\[\](),;+\-*/^])"
    r"|(?P<comment>#)"
    r"|(?P<bad>\S)"
)
_COORD = re.compile(r"z(bar)?(\d+)")


class DslError(ValueError):
    """Syntax or consistency error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(eq=False, frozen=True)
class MetricSpec:
    """A Hermitian metric in local holomorphic coordinates.

    entries[i][j] is the expression for g_{i jbar} (0-based storage of the
    1-based DSL indices), held as a tuple of row tuples whatever sequences
    it was given as, so a spec cannot change after it is built.
    Hermitianity and positive definiteness are not enforced structurally;
    they are checked numerically wherever the metric is evaluated.
    """

    n: int
    entries: tuple
    name: str = "metric"
    domain: Domain = Ball(1.0)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))

    @cached_property
    def program(self) -> ex.Program:
        """The n^2 entries, row by row, as one interned program, compiled on first use and kept with the spec."""
        return ex.compile_program([e for row in self.entries for e in row])


@dataclass(frozen=True)
class _Tok:
    type: str  # NUM IMAG IDENT = [ ] ( ) , ; + - * / ^
    text: str
    value: float
    line: int
    col: int


def _lex_line(line: str, lineno: int) -> list:
    toks = []
    for m in _TOKEN.finditer(line):  # finditer skips whitespace: every other character matches
        typ, text, value, col = m.lastgroup, m[0], 0.0, m.start() + 1
        if typ == "comment":
            break
        if typ == "bad":
            raise DslError(f"unexpected character {text!r}", lineno, col)
        if typ == "op":
            typ = text
        elif typ != "IDENT":  # NUM, or IMAG when the suffix i follows
            text = m["NUM"]
            try:
                value = float(text)
            except ValueError:
                raise DslError(f"bad number literal {text!r}", lineno, col) from None
            if math.isinf(value):
                raise DslError(f"number literal {text!r} is not finite", lineno, col)
        toks.append(_Tok(typ, text, value, lineno, col))
    return toks


class _TokStream:
    def __init__(self, toks, lineno):
        self.toks = toks
        self.pos = 0
        self.line = lineno

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def expect(self, typ: str) -> _Tok:
        t = self.next()
        if t is None:
            self.fail(f"expected {typ!r} but the statement ended")
        if t.type != typ:
            raise DslError(f"expected {typ!r}, got {t.text!r}", t.line, t.col)
        return t

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def fail(self, message: str):
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else None
            raise DslError(message, self.line, (last.col + len(last.text)) if last else 1)
        raise DslError(message, t.line, t.col)


def _coord_index(name: str):
    """(kind, k) when name matches z<digits> / zbar<digits>, else None."""
    m = _COORD.fullmatch(name)
    return m and ("conj_coord" if m[1] else "coord", int(m[2]))


class _ExprParser:
    def __init__(self, ts: _TokStream, n: int, lets: dict):
        self.ts = ts
        self.n = n
        self.lets = lets
        self.nesting = 0

    def parse(self) -> ex.Expr:
        return self._expr()

    def _bounded(self, e: ex.Expr, t: _Tok) -> ex.Expr:
        if e.depth > MAX_DEPTH:
            raise DslError(f"expression is nested deeper than {MAX_DEPTH} levels", t.line, t.col)
        return e

    def _node(self, t: _Tok, build, *args) -> ex.Expr:
        """build(*args), the node of the operator or function at t, its constants folded.

        A constant that overflows, or a division by zero or log of zero
        constant, is a DslError at t; underflow folds to 0.
        """
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                e = build(*args)
            finite = e.kind != "const" or np.isfinite(e.value)
        except ex.EvaluationError as err:
            raise DslError(str(err), t.line, t.col) from None
        except ArithmeticError:
            finite = False
        if not finite:
            raise DslError("constant overflows", t.line, t.col)
        return self._bounded(e, t)

    def _bracketed(self, opening: _Tok) -> ex.Expr:
        """The expression after an opening bracket, up to its ')'."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise DslError(
                f"brackets are nested deeper than {MAX_DEPTH} levels", opening.line, opening.col
            )
        e = self._expr()
        self.ts.expect(")")
        self.nesting -= 1
        return e

    def _expr(self) -> ex.Expr:
        e = self._term()
        while (t := self.ts.peek()) is not None and t.type in "+-":
            self.ts.next()
            rhs = self._term()
            e = self._node(t, ex.add if t.type == "+" else ex.sub, e, rhs)
        return e

    def _term(self) -> ex.Expr:
        e = self._unary()
        while (t := self.ts.peek()) is not None and t.type in "*/":
            self.ts.next()
            rhs = self._unary()
            e = self._node(t, ex.mul if t.type == "*" else ex.div, e, rhs)
        return e

    def _unary(self) -> ex.Expr:
        signs = []
        while (t := self.ts.peek()) is not None and t.type == "-":
            signs.append(self.ts.next())
        e = self._power()
        for t in reversed(signs):
            e = self._node(t, ex.neg, e)
        return e

    def _power(self) -> ex.Expr:
        e = self._atom()
        t = self.ts.peek()
        if t is not None and t.type == "^":
            self.ts.next()
            sign = 1
            if (s := self.ts.peek()) is not None and s.type == "-":
                self.ts.next()
                sign = -1
            num = self.ts.expect("NUM")
            if num.value != int(num.value):
                raise DslError("exponent must be an integer", num.line, num.col)
            e = self._node(t, ex.int_pow, e, sign * int(num.value))
        return e

    def _atom(self) -> ex.Expr:
        t = self.ts.next()
        if t is None:
            self.ts.fail("expected an expression")
        if t.type == "NUM":
            return ex.const(t.value)
        if t.type == "IMAG":
            return ex.const(t.value * 1j)
        if t.type == "(":
            return self._bracketed(t)
        if t.type == "IDENT":
            return self._ident(t)
        raise DslError(f"unexpected {t.text!r} in expression", t.line, t.col)

    def _ident(self, t: _Tok) -> ex.Expr:
        name = t.text
        nxt = self.ts.peek()
        if nxt is not None and nxt.type == "(" and name in _FUNCS:
            arg = self._bracketed(self.ts.next())
            return self._node(t, _FUNCS[name], arg)
        if nxt is not None and nxt.type == "(" and name == "abs2":
            self.ts.next()
            inner = self.ts.peek()
            if inner is not None and inner.type == "IDENT" and inner.text == "z":
                after = self.ts.toks[self.ts.pos + 1] if self.ts.pos + 1 < len(self.ts.toks) else None
                if after is not None and after.type == ")":
                    self.ts.next()
                    self.ts.next()
                    e = ex.ZERO
                    for k in range(1, self.n + 1):
                        e = ex.add(e, ex.mul(ex.coord(k), ex.conj_coord(k)))
                    return self._bounded(e, t)
            arg = self._bracketed(nxt)
            return self._node(t, lambda a: ex.mul(a, ex.conj(a)), arg)
        hit = _coord_index(name)
        if hit is not None:
            kind, k = hit
            if not 1 <= k <= self.n:
                raise DslError(
                    f"coordinate {name!r} out of range for dim {self.n}", t.line, t.col
                )
            return ex.coord(k) if kind == "coord" else ex.conj_coord(k)
        if name in self.lets:
            return self._bounded(self.lets[name], t)
        if name == "z":
            raise DslError("bare 'z' is only valid inside abs2(z)", t.line, t.col)
        raise DslError(f"unknown identifier {name!r}", t.line, t.col)


def _split_statements(toks: list) -> list:
    """Split one line's tokens on ';', keeping 'domain …' whole."""
    out, cur = [], []
    for idx, t in enumerate(toks):
        if not cur and t.type == "IDENT" and t.text == "domain":
            # a domain statement owns the rest of the line, ';' included
            out.append(toks[idx:])
            return out
        if t.type == ";":
            if cur:
                out.append(cur)
                cur = []
        else:
            cur.append(t)
    if cur:
        out.append(cur)
    return out


def parse_metric(source: str, name: str = "metric") -> MetricSpec:
    """Parse DSL source into a MetricSpec.

    Raises DslError with line/column on syntax errors, out-of-range indices,
    duplicate assignments and constants that do not fold to a finite value.
    """
    n = None
    lets: dict = {}
    entries = None
    assigned = set()
    domain = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        toks = _lex_line(raw, lineno)
        for stmt in _split_statements(toks):
            ts = _TokStream(stmt, lineno)
            head = ts.next()
            if head.type != "IDENT":
                raise DslError(f"unexpected {head.text!r}", head.line, head.col)
            if head.text == "dim":
                if n is not None:
                    raise DslError("dim declared twice", head.line, head.col)
                num = ts.expect("NUM")
                if num.value != int(num.value) or num.value < 1:
                    raise DslError("dim must be a positive integer", num.line, num.col)
                n = int(num.value)
                entries = [[ex.ZERO for _ in range(n)] for _ in range(n)]
            elif head.text == "let":
                _require_dim(n, head)
                ident = ts.expect("IDENT")
                if ident.text in _KEYWORDS or ident.text in _FUNCS or ident.text == "abs2" \
                        or ident.text == "z" or _coord_index(ident.text) is not None:
                    raise DslError(f"{ident.text!r} is reserved", ident.line, ident.col)
                if ident.text in lets:
                    raise DslError(f"duplicate let {ident.text!r}", ident.line, ident.col)
                ts.expect("=")
                e = _ExprParser(ts, n, lets).parse()
                _expect_done(ts)
                lets[ident.text] = e
            elif head.text == "g":
                _require_dim(n, head)
                ts.expect("[")
                itok = ts.expect("NUM")
                ts.expect(",")
                jtok = ts.expect("NUM")
                ts.expect("]")
                ts.expect("=")
                i, j = int(itok.value), int(jtok.value)
                if itok.value != i or jtok.value != j or not (1 <= i <= n and 1 <= j <= n):
                    raise DslError(
                        f"entry index [{itok.text},{jtok.text}] out of range for dim {n}",
                        itok.line, itok.col,
                    )
                if (i, j) in assigned:
                    raise DslError(f"entry g[{i},{j}] assigned twice", itok.line, itok.col)
                e = _ExprParser(ts, n, lets).parse()
                _expect_done(ts)
                entries[i - 1][j - 1] = e
                assigned.add((i, j))
            elif head.text == "domain":
                _require_dim(n, head)
                if domain is not None:
                    raise DslError("domain declared twice", head.line, head.col)
                domain = _parse_domain(ts, n)
            else:
                raise DslError(f"unknown statement {head.text!r}", head.line, head.col)

    if n is None:
        raise DslError("missing dim declaration", 1, 1)
    return MetricSpec(n=n, entries=entries, name=name, domain=domain or Ball(1.0))


def _require_dim(n, tok: _Tok):
    if n is None:
        raise DslError("dim must be declared first", tok.line, tok.col)


def _expect_done(ts: _TokStream):
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} after expression")


def _parse_domain(ts: _TokStream, n: int) -> Domain:
    def radius(kind: _Tok, num: _Tok) -> float:
        if num.value <= 0:  # the tokenizer has rejected inf
            raise DslError(f"{kind.text} radius must be positive, got {num.text}", num.line, num.col)
        return num.value

    def atom() -> Domain:
        kind = ts.expect("IDENT")
        if kind.text == "ball":
            return Ball(radius(kind, ts.expect("NUM")))
        if kind.text == "annulus":
            r1 = ts.expect("NUM").value
            r2 = ts.expect("NUM")
            if not 0 < r1 < r2.value:
                raise DslError("annulus needs 0 < R1 < R2", kind.line, kind.col)
            return Annulus(r1, radius(kind, r2))
        if kind.text == "polydisc":
            return Polydisc(radius(kind, ts.expect("NUM")))
        raise DslError(f"unknown domain {kind.text!r}", kind.line, kind.col)

    first = ts.peek()
    if first is not None and first.type == "IDENT" and first.text == "product":
        ts.next()
        factors = [atom()]
        while (t := ts.peek()) is not None and t.type == ";":
            ts.next()
            factors.append(atom())
        _expect_done(ts)
        if len(factors) != n:
            raise DslError(
                f"product domain needs one factor per coordinate ({n}), got {len(factors)}",
                first.line, first.col,
            )
        return Product(tuple(factors))
    dom = atom()
    _expect_done(ts)
    return dom


def parse_expression(text: str, n: int) -> ex.Expr:
    """Parse a single DSL expression (e.g. a conformal factor) for dimension n."""
    ts = _TokStream(_lex_line(text, 1), 1)
    e = _ExprParser(ts, n, {}).parse()
    _expect_done(ts)
    return e


def _domain_source(d: Domain) -> str:
    if isinstance(d, Ball):
        return f"ball {repr(d.radius)}"
    if isinstance(d, Annulus):
        return f"annulus {repr(d.r_inner)} {repr(d.r_outer)}"
    if isinstance(d, Polydisc):
        return f"polydisc {repr(d.radius)}"
    if isinstance(d, Product):
        return "product " + "; ".join(_domain_source(f) for f in d.factors)
    raise TypeError(f"unknown domain {d!r}")


def print_metric(spec: MetricSpec) -> str:
    """Render a MetricSpec back to DSL source (zero entries omitted)."""
    lines = [f"dim {spec.n}"]
    for i in range(spec.n):
        for j in range(spec.n):
            e = spec.entries[i][j]
            if e != ex.ZERO:
                lines.append(f"g[{i + 1},{j + 1}] = {ex.to_source(e)}")
    lines.append(f"domain {_domain_source(spec.domain)}")
    return "\n".join(lines) + "\n"
