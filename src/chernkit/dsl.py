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
A coordinate index with more digits than ``int`` reads (4,300) is out of
range, like any other index above N.

Each statement is read by one parser over its tokens, and an expression by
precedence: ``+ -``, then ``* /``, then unary ``-``, then ``^``, then atoms.

An expression may nest at most :data:`MAX_DEPTH` levels, counting both the
depth of its tree (``let`` names substituted) and the nesting of brackets.
Deeper input is a :class:`DslError`.  Evaluation and differentiation run
compiled programs and do not recurse, but the printer, tree equality and
hashing, and the symbolic reference derivative do, and the limit keeps them
well inside Python's recursion limit.

``dim`` may be at most :data:`MAX_DIM`; a larger one is a :class:`DslError`
at the number.  A one-point ``eval`` of the diagonal metric
``g[i,i] = 1 + i*abs2(z)`` peaked at 96 MB (5.7 s) for N = 16, 290 MB (36 s)
for N = 24 and 787 MB (285 s) for N = 32, on a shared 2-core x86-64 VM.
Memory grows about as N^3, so N = 64 would need about 6 GB; ``dim 100000``
ran out of memory building the N x N entry table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .domains import Annulus, Ball, Domain, Polydisc, Product

__all__ = ["MetricSpec", "DslError", "parse_metric", "parse_expression", "print_metric"]

#: deepest expression tree, and deepest bracket nesting, the parser accepts
MAX_DEPTH = 100
#: largest dim the parser accepts (see the module docstring)
MAX_DIM = 32

# names a let may not take, besides the functions and the coordinates
_RESERVED = {"dim", "let", "g", "domain", "ball", "annulus", "polydisc", "product", "z"}
_FUNCS = {"conj": ex.conj, "exp": ex.exp, "log": ex.log, "abs2": lambda a: ex.mul(a, ex.conj(a))}
_BINARY = ({"+": ex.add, "-": ex.sub}, {"*": ex.mul, "/": ex.div})  # by precedence, lowest first

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


class _Tok(NamedTuple):
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


def _coord_index(name: str):
    """(kind, k) when name matches z<digits> / zbar<digits>, else None; k = 0, out of
    range, when the index has more digits than int reads."""
    m = _COORD.fullmatch(name)
    if m is None:
        return None
    try:
        k = int(m[2])
    except ValueError:
        k = 0
    return "conj_coord" if m[1] else "coord", k


class _Parser:
    """One statement's tokens, read left to right, and its expression by precedence."""

    def __init__(self, toks: list, line: int, n, lets: dict):
        self.toks, self.pos, self.line = toks, 0, line
        self.n, self.lets = n, lets
        self.nesting = 0

    def peek(self, ahead: int = 0):
        k = self.pos + ahead
        return self.toks[k] if k < len(self.toks) else None

    def at(self, typ: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t is not None and t.type == typ

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

    def fail(self, message: str):
        """DslError at the next token, or just past the last one when the statement has ended."""
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else None
            raise DslError(message, self.line, (last.col + len(last.text)) if last else 1)
        raise DslError(message, t.line, t.col)

    def done(self, result):
        """result, once every token of the statement is read."""
        if self.pos < len(self.toks):
            self.fail(f"unexpected {self.peek().text!r} after expression")
        return result

    def bounded(self, e: ex.Expr, t: _Tok) -> ex.Expr:
        if e.depth > MAX_DEPTH:
            raise DslError(f"expression is nested deeper than {MAX_DEPTH} levels", t.line, t.col)
        return e

    def node(self, t: _Tok, build, *args) -> ex.Expr:
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
        return self.bounded(e, t)

    def bracketed(self, opening: _Tok) -> ex.Expr:
        """The expression after an opening bracket, up to its ')'."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise DslError(
                f"brackets are nested deeper than {MAX_DEPTH} levels", opening.line, opening.col
            )
        e = self.expr()
        self.expect(")")
        self.nesting -= 1
        return e

    def expr(self, level: int = 0) -> ex.Expr:
        """Operands joined left to right by the operators of _BINARY[level]; an operand is the next level's expression."""
        ops = _BINARY[level]
        e = self.expr(level + 1) if level + 1 < len(_BINARY) else self.unary()
        while (t := self.peek()) is not None and t.type in ops:
            self.next()
            rhs = self.expr(level + 1) if level + 1 < len(_BINARY) else self.unary()
            e = self.node(t, ops[t.type], e, rhs)
        return e

    def unary(self) -> ex.Expr:
        signs = []
        while self.at("-"):
            signs.append(self.next())
        e = self.power()
        for t in reversed(signs):
            e = self.node(t, ex.neg, e)
        return e

    def power(self) -> ex.Expr:
        e = self.atom()
        if self.at("^"):
            t = self.next()
            sign = 1
            if self.at("-"):
                self.next()
                sign = -1
            num = self.expect("NUM")
            if num.value != int(num.value):
                raise DslError("exponent must be an integer", num.line, num.col)
            e = self.node(t, ex.int_pow, e, sign * int(num.value))
        return e

    def atom(self) -> ex.Expr:
        t = self.next()
        if t is None:
            self.fail("expected an expression")
        if t.type == "NUM":
            return ex.const(t.value)
        if t.type == "IMAG":
            return ex.const(t.value * 1j)
        if t.type == "(":
            return self.bracketed(t)
        if t.type == "IDENT":
            return self.ident(t)
        raise DslError(f"unexpected {t.text!r} in expression", t.line, t.col)

    def ident(self, t: _Tok) -> ex.Expr:
        name = t.text
        if name in _FUNCS and self.at("("):
            opening = self.next()
            if name == "abs2" and self.at("IDENT") and self.peek().text == "z" and self.at(")", 1):
                self.pos += 2
                e = ex.ZERO
                for k in range(1, self.n + 1):
                    e = ex.add(e, ex.mul(ex.coord(k), ex.conj_coord(k)))
                return self.bounded(e, t)
            return self.node(t, _FUNCS[name], self.bracketed(opening))
        hit = _coord_index(name)
        if hit is not None:
            kind, k = hit
            if not 1 <= k <= self.n:
                raise DslError(f"coordinate {name!r} out of range for dim {self.n}", t.line, t.col)
            return ex.coord(k) if kind == "coord" else ex.conj_coord(k)
        if name in self.lets:
            return self.bounded(self.lets[name], t)
        if name == "z":
            raise DslError("bare 'z' is only valid inside abs2(z)", t.line, t.col)
        raise DslError(f"unknown identifier {name!r}", t.line, t.col)

    def domain(self) -> Domain:
        """The rest of a domain statement: one domain, or 'product' and one factor per coordinate."""
        first = self.peek()
        if first is None or first.type != "IDENT" or first.text != "product":
            return self.done(self.domain_factor())
        self.next()
        factors = [self.domain_factor()]
        while self.at(";"):
            self.next()
            factors.append(self.domain_factor())
        self.done(None)
        if len(factors) != self.n:
            raise DslError(
                f"product domain needs one factor per coordinate ({self.n}), got {len(factors)}",
                first.line, first.col,
            )
        return Product(tuple(factors))

    def domain_factor(self) -> Domain:
        def radius(kind: _Tok, num: _Tok) -> float:
            if num.value <= 0:  # the tokenizer has rejected inf
                raise DslError(f"{kind.text} radius must be positive, got {num.text}", num.line, num.col)
            return num.value

        kind = self.expect("IDENT")
        if kind.text == "ball":
            return Ball(radius(kind, self.expect("NUM")))
        if kind.text == "annulus":
            r1 = self.expect("NUM").value
            r2 = self.expect("NUM")
            if not 0 < r1 < r2.value:
                raise DslError("annulus needs 0 < R1 < R2", kind.line, kind.col)
            return Annulus(r1, radius(kind, r2))
        if kind.text == "polydisc":
            return Polydisc(radius(kind, self.expect("NUM")))
        raise DslError(f"unknown domain {kind.text!r}", kind.line, kind.col)


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
        for stmt in _split_statements(_lex_line(raw, lineno)):
            p = _Parser(stmt, lineno, n, lets)
            head = p.next()
            if head.type != "IDENT":
                raise DslError(f"unexpected {head.text!r}", head.line, head.col)
            if n is None and head.text in ("let", "g", "domain"):
                raise DslError("dim must be declared first", head.line, head.col)
            if head.text == "dim":
                if n is not None:
                    raise DslError("dim declared twice", head.line, head.col)
                num = p.expect("NUM")
                if num.value != int(num.value) or num.value < 1:
                    raise DslError("dim must be a positive integer", num.line, num.col)
                if num.value > MAX_DIM:
                    raise DslError(f"dim must be at most {MAX_DIM}", num.line, num.col)
                n = int(num.value)
                entries = [[ex.ZERO for _ in range(n)] for _ in range(n)]
            elif head.text == "let":
                ident = p.expect("IDENT")
                if ident.text in _RESERVED or ident.text in _FUNCS or _coord_index(ident.text) is not None:
                    raise DslError(f"{ident.text!r} is reserved", ident.line, ident.col)
                if ident.text in lets:
                    raise DslError(f"duplicate let {ident.text!r}", ident.line, ident.col)
                p.expect("=")
                lets[ident.text] = p.done(p.expr())
            elif head.text == "g":
                p.expect("[")
                itok = p.expect("NUM")
                p.expect(",")
                jtok = p.expect("NUM")
                p.expect("]")
                p.expect("=")
                i, j = int(itok.value), int(jtok.value)
                if itok.value != i or jtok.value != j or not (1 <= i <= n and 1 <= j <= n):
                    raise DslError(
                        f"entry index [{itok.text},{jtok.text}] out of range for dim {n}",
                        itok.line, itok.col,
                    )
                if (i, j) in assigned:
                    raise DslError(f"entry g[{i},{j}] assigned twice", itok.line, itok.col)
                entries[i - 1][j - 1] = p.done(p.expr())
                assigned.add((i, j))
            elif head.text == "domain":
                if domain is not None:
                    raise DslError("domain declared twice", head.line, head.col)
                domain = p.domain()
            else:
                raise DslError(f"unknown statement {head.text!r}", head.line, head.col)

    if n is None:
        raise DslError("missing dim declaration", 1, 1)
    return MetricSpec(n=n, entries=entries, name=name, domain=domain or Ball(1.0))


def parse_expression(text: str, n: int) -> ex.Expr:
    """Parse a single DSL expression (e.g. a conformal factor) for dimension n."""
    p = _Parser(_lex_line(text, 1), 1, n, {})
    return p.done(p.expr())


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
