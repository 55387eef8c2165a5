"""Sparse polynomial arithmetic of the benchmark's own.

Polynomials are dicts from exponent tuples to ``int`` or ``Fraction``
coefficients.  The generators use this module to build inputs and the checker
uses it to test outputs; none of it goes through ``edgelift``, so a defect in
the package's products cannot hide itself.
"""

from __future__ import annotations

import re
from fractions import Fraction


def reduce_terms(terms, modulus=None):
    """Drop zero coefficients, reducing modulo ``modulus`` when given."""
    if modulus is not None:
        terms = {e: c % modulus for e, c in terms.items()}
    return {e: c for e, c in terms.items() if c}


def poly_mul(f, g, modulus=None):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return reduce_terms(out, modulus)


def poly_pow(f, n):
    nvars = len(next(iter(f)))
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = poly_mul(out, f)
    return out


def deglex(e):
    return (sum(e), e)


def _monomial(exponent, names):
    return "*".join(name if k == 1 else f"{name}^{k}"
                    for name, k in zip(names, exponent) if k)


def render(terms, names):
    """An expression in the CLI grammar, terms in degree-lex order."""
    pieces = []
    for e in sorted(terms, key=deglex):
        c = terms[e]
        mono = _monomial(e, names)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) if pieces else "0"


_SIGNED_TERM = re.compile(r"\s*([+-]?)\s*([^+\-\s][^+\-]*?)\s*(?=[+-]|$)")


def parse_rendered(text, names):
    """Parse the canonical rendering of ``edgelift`` output: signed terms of
    the form ``c*x^a*y^b`` with rational ``c``; returns exponent -> Fraction."""
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    pos = 0
    for match in _SIGNED_TERM.finditer(text):
        if match.start() != pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        pos = match.end()
        sign, body = match.group(1), match.group(2)
        coeff = Fraction(1)
        exponent = [0] * len(names)
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exponent[index[name]] += int(power) if power else 1
        e = tuple(exponent)
        out[e] = out.get(e, 0) + (-coeff if sign == "-" else coeff)
    if pos != len(text):
        raise ValueError(f"cannot parse {text!r} at {pos}")
    return reduce_terms(out)
