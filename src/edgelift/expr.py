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
import sys
from dataclasses import dataclass
from itertools import islice
from math import gcd

from .coeffs import RATIONALS
from .poly import SparsePoly, exp_add, exp_scale

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


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


# One match per token: an integer, a name or an operator.
_TOKEN = re.compile(rf"[0-9]+|{_IDENT_RE.pattern}|[-+*^/()]")
# Tokens and whitespace from the start of the text: the match ends at the
# first character that is neither.
_TOKENS_AND_SPACE = re.compile(rf"(?:\s+|{_TOKEN.pattern})*")
_MAX_NESTING = 100


class _Parser:
    """Evaluates the grammar a term at a time: a term is one exponent vector
    and one coefficient num/den, entering the ring once, and only a factor of
    several terms (a parenthesized sum, or a power of one) is a SparsePoly.
    The tokens are strings, "" at the end; an error rescans for its position."""

    def __init__(self, text, vars_, ring):
        self.text, self.tokens = text, _TOKEN.findall(text)
        # Tokens hold no whitespace and do not overlap, so they cover every
        # other character exactly when their lengths add up to its count.
        if sum(map(len, self.tokens)) != len("".join(text.split())):
            raise ParseError(_TOKENS_AND_SPACE.match(text).end(),
                             "a number, variable or operator")
        self.tokens.append("")
        self.index = {name: i for i, name in enumerate(vars_.names)}
        self.ring = ring
        self.nvars = len(vars_)

    def at(self, k):
        """Position in the text of token k."""
        match = next(islice(_TOKEN.finditer(self.text), k, None), None)
        return len(self.text) if match is None else match.start()

    def expr(self, pos, depth):
        """The sum at token ``pos`` and the position after it, added up in
        one dict; ``depth`` counts the enclosing parentheses."""
        tokens, ring, modulus, index = self.tokens, self.ring, self.ring.modulus, self.index
        out = {}
        sign = 1
        while True:
            exponent = [0] * self.nvars
            num, den, product = sign, 1, None
            while True:   # a unary per pass: '-'* atom ('^' INTEGER)?
                while tokens[pos] == "-":
                    num, pos = -num, pos + 1
                token = tokens[pos]
                pos += 1
                i = index.get(token)
                if i is not None:
                    if tokens[pos] == "^":
                        n, pos = self.power(pos)
                        exponent[i] += n
                    else:
                        exponent[i] += 1
                elif token.isdigit():
                    literal = pos - 1
                    a, b = int(token), 1
                    if tokens[pos] == "/":
                        if not tokens[pos + 1].isdigit():
                            raise ParseError(self.at(pos + 1), "an integer denominator")
                        b = int(tokens[pos + 1])
                        g = gcd(a, b)   # the literal in lowest terms; 0 when a = b = 0
                        if not g or not ring.is_unit(b // g):
                            raise ParseError(self.at(pos - 1),
                                             f"a literal with unit denominator in {ring}")
                        a, b = a // g, b // g
                        pos += 2
                    if tokens[pos] == "^":   # mod p^k, so 3^1000000000 stays small
                        n, pos = self.power(pos)
                        self.refuse_long_power(a, b, n, literal)
                        a, b = pow(a, n, modulus), pow(b, n, modulus)
                    num, den = num * a, den * b
                elif token == "(":
                    if depth == _MAX_NESTING:
                        raise ParseError(self.at(pos - 1),
                                         f"at most {_MAX_NESTING} nested parentheses")
                    literal = pos - 1
                    f, pos = self.expr(pos, depth + 1)
                    if tokens[pos] != ")":
                        raise ParseError(self.at(pos), "')'")
                    n, pos = self.power(pos + 1)
                    if n is not None and len(f) > 1:
                        f, n = f.pow(n), None
                    if len(f) > 1:
                        product = f if product is None else product * f
                    elif f:
                        ((e, c),) = f.terms.items()
                        if n is not None:
                            self.refuse_long_power(c.numerator, c.denominator, n, literal)
                            e, c = exp_scale(e, n), pow(c, n, modulus)
                        exponent[:] = exp_add(exponent, e)
                        num, den = num * c.numerator, den * c.denominator
                    elif n != 0:
                        num = 0
                elif token[:1].isalpha():
                    raise UnknownVariable(token, self.at(pos - 1))
                else:
                    raise ParseError(self.at(pos - 1), "a number, variable or '('")
                if tokens[pos] != "*":
                    break
                pos += 1
            if num:
                c = ring.div(num, den)
                if product is None:
                    e = tuple(exponent)
                    out[e] = out[e] + c if e in out else c
                else:
                    for e, c2 in product.terms.items():
                        e = exp_add(exponent, e)
                        out[e] = out[e] + c * c2 if e in out else c * c2
            if tokens[pos] not in ("+", "-"):
                return SparsePoly(self.nvars, ring, out), pos
            sign = 1 if tokens[pos] == "+" else -1
            pos += 1

    def refuse_long_power(self, a, b, n, literal):
        """ParseError at token ``literal`` when a^n or b^n, formed in full over
        Q, has more decimal digits than sys.get_int_max_str_digits() (0, or
        a Python without it, is no limit).  v^n lies in [2^(n*(bits-1)),
        2^(n*bits)) and 2^(3*limit) < 10^limit < 2^(4*limit), so only a power
        near the limit is formed to decide."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if self.ring.modulus is not None or not limit:
            return
        for v in map(abs, (a, b)):
            bits = v.bit_length()
            if n * (bits - 1) >= 4 * limit or (n * bits > 3 * limit and v**n >= 10**limit):
                raise ParseError(self.at(literal),
                                 f"a literal power of at most {limit} decimal digits")

    def power(self, pos):
        """The n of a '^ n' at token ``pos``, None without one, and the
        position after it."""
        if self.tokens[pos] != "^":
            return None, pos
        token = self.tokens[pos + 1]
        if token == "-":
            raise NegativeExponent(self.at(pos + 1))
        if not token.isdigit():
            raise ParseError(self.at(pos + 1), "a nonnegative integer exponent")
        return int(token), pos + 2


def parse(text, vars_, ring):
    """Parse an expression into a canonical SparsePoly over the given ring."""
    if isinstance(vars_, (list, tuple)):
        vars_ = VarTable(tuple(vars_))
    if not text.strip():
        raise ParseError(0, "a nonempty expression")
    parser = _Parser(text, vars_, ring)
    f, pos = parser.expr(0, 0)
    if parser.tokens[pos]:
        raise ParseError(parser.at(pos), "'+', '-', '*' or end of input")
    return f


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
