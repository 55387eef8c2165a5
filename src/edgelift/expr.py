"""Parsing and printing of polynomial expressions.

Grammar (whitespace ignored, no implicit multiplication):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary ('*' unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' INTEGER)?
    atom   :=  INTEGER ('/' INTEGER)? | VARIABLE | '(' expr ')'

Rational literals are written "a/b".  Exponents are nonnegative integers.
Rendering uses the canonical degree-lex term order and round-trips exactly
through :func:`parse`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import NotInvertible, RATIONALS
from .poly import SparsePoly, exp_scale

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


class ExprError(ValueError):
    """Base class for all parse-time failures; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(ExprError):
    def __init__(self, position, expected):
        super().__init__(f"expected {expected}", position)
        self.expected = expected


class UnknownVariable(ExprError):
    def __init__(self, name, position):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name


class NegativeExponent(ExprError):
    def __init__(self, position):
        super().__init__("exponents must be nonnegative integers", position)


@dataclass(frozen=True)
class VarTable:
    """Ordered, distinct variable names; the last one may act as the
    distinguished variable of the monic pipeline."""

    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("need at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")

    @classmethod
    def split(cls, text):
        return cls(tuple(part.strip() for part in text.split(",")))

    def __len__(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(("int", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, "a number, variable or operator")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, vars_, ring):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars_
        self.ring = ring
        self.nvars = len(vars_)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take(kind)
        if tok is None:
            raise ParseError(self.peek()[2], what)
        return tok

    def parse(self):
        f = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(self.peek()[2], "'+', '-', '*' or end of input")
        return f

    def expr(self):
        # one dict for the whole sum, so parsing is linear in the term count
        out = dict(self.term().terms)
        while True:
            if self.take("+"):
                sign = 1
            elif self.take("-"):
                sign = -1
            else:
                return SparsePoly(self.nvars, self.ring, out)
            for e, c in self.term().terms.items():
                out[e] = out.get(e, 0) + sign * c

    def term(self):
        f = self.unary()
        while self.take("*"):
            f = f * self.unary()
        return f

    def unary(self):
        if self.take("-"):
            return -self.unary()
        return self.power()

    def power(self):
        f = self.atom()
        if self.take("^"):
            tok = self.peek()
            if tok[0] == "-":
                raise NegativeExponent(tok[2])
            tok = self.expect("int", "a nonnegative integer exponent")
            return _power(f, int(tok[1]))
        return f

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.pos += 1
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "/":
                self.pos += 1
                den = self.expect("int", "an integer denominator")
                value = Fraction(int(tok[1]), int(den[1]))
            try:
                coeff = self.ring.from_fraction(value)
            except NotInvertible:
                raise ParseError(tok[2], f"a literal with unit denominator in {self.ring}") from None
            return SparsePoly.constant(self.nvars, self.ring, coeff)
        if tok[0] == "name":
            self.pos += 1
            try:
                idx = self.vars.index(tok[1])
            except ValueError:
                raise UnknownVariable(tok[1], tok[2]) from None
            exponent = tuple(1 if j == idx else 0 for j in range(self.nvars))
            return SparsePoly.monomial(self.nvars, self.ring, exponent)
        if tok[0] == "(":
            self.pos += 1
            f = self.expr()
            self.expect(")", "')'")
            return f
        raise ParseError(tok[2], "a number, variable or '('")


def _power(f, n):
    """f^n; a single term is raised directly, its coefficient mod the
    modulus over F_p and Z/p^k."""
    if len(f) != 1:
        return f.pow(n)
    ((e, c),) = f.terms.items()
    ring = f.ring
    c = c**n if ring.kind == RATIONALS else pow(c, n, ring.modulus)
    return SparsePoly(f.nvars, ring, {exp_scale(e, n): c})


def parse(text, vars_, ring):
    """Parse an expression into a canonical SparsePoly over the given ring."""
    if isinstance(vars_, (list, tuple)):
        vars_ = VarTable(tuple(vars_))
    if not text.strip():
        raise ParseError(0, "a nonempty expression")
    return _Parser(text, vars_, ring).parse()


def _monomial_str(exponent, names):
    parts = []
    for name, e in zip(names, exponent):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render(f, vars_):
    """Canonical string form: degree-lex term order, round-trips through parse."""
    if isinstance(vars_, (list, tuple)):
        vars_ = VarTable(tuple(vars_))
    if len(vars_) != f.nvars:
        raise ValueError("variable table does not match the polynomial")
    if not f:
        return "0"
    ring = f.ring
    pieces = []
    for exponent, coeff in f.sorted_terms():
        mono = _monomial_str(exponent, vars_.names)
        negative = ring.kind == RATIONALS and coeff < 0
        mag = -coeff if negative else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
