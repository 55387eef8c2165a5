"""Sparse multivariate polynomials over an exact coefficient ring.

Terms are stored as a dict mapping exponent tuples to nonzero scalars.  The
canonical term order used for iteration, rendering and every deterministic
choice in the package is degree-lexicographic: sort by total degree, ties
broken lexicographically on the exponent tuple.

The exp_* helpers are the one exponent kernel: every sum, difference,
negation, scaling, componentwise minimum and dot product of exponent vectors
in the package goes through them.  Each is one map() over the vectors, so the
loop runs in C; like zip(), map() stops at the shorter vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from math import gcd

from .coeffs import RingDescriptor, RingMismatch


# -- exponent-vector helpers -------------------------------------------------

def exp_add(a, b):
    return tuple(map(operator.add, a, b))


def exp_sub(a, b):
    return tuple(map(operator.sub, a, b))


def exp_neg(a):
    return tuple(map(operator.neg, a))


def exp_scale(a, n):
    return tuple(map(operator.mul, a, repeat(n)))


def exp_dot(a, b):
    return sum(map(operator.mul, a, b))


def exp_min(a, b):
    return tuple(map(min, a, b))


def deglex_key(e):
    return (sum(e), e)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(map(operator.floordiv, v, repeat(g)))


@dataclass(frozen=True)
class WeightedBound:
    """An integer weight vector plus a cutoff N >= 0.

    A term with exponent alpha is kept when <weights, alpha> <= bound.  The
    weight is additive on exponents, which is all a truncated product needs;
    0/1 weights cap the degree in some of the variables.
    """

    weights: tuple
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.bound < 0:
            raise ValueError("truncation bound must be nonnegative")

    def weight_of(self, exponent):
        return exp_dot(self.weights, exponent)

    def admits(self, exponent):
        return self.weight_of(exponent) <= self.bound


class SparsePoly:
    """Finitely supported map from exponent vectors to nonzero scalars."""

    __slots__ = ("nvars", "ring", "terms")

    def __init__(self, nvars, ring, terms=()):
        if not isinstance(ring, RingDescriptor):
            raise TypeError("ring must be a RingDescriptor")
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exponent, coeff in items:
            exponent = tuple(exponent)
            if len(exponent) != nvars:
                raise ValueError(f"exponent {exponent} has wrong length")
            if exponent in clean:
                coeff = clean[exponent] + coeff
            coeff = ring.normalize(coeff)
            if not coeff:
                clean.pop(exponent, None)
                continue
            clean[exponent] = coeff
        self.nvars = nvars
        self.ring = ring
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars, ring):
        return cls(nvars, ring)

    @classmethod
    def constant(cls, nvars, ring, value):
        return cls(nvars, ring, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars, ring, exponent, coeff=1):
        return cls(nvars, ring, {tuple(exponent): coeff})

    # -- queries -------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def support(self):
        """Exponent vectors with nonzero coefficient, in degree-lex order."""
        return sorted(self.terms, key=deglex_key)

    def sorted_terms(self):
        return [(e, self.terms[e]) for e in self.support()]

    def coeff(self, exponent):
        return self.terms.get(tuple(exponent), 0)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.nvars, self.ring, self.terms) == (other.nvars, other.ring, other.terms)

    def __hash__(self):
        return hash((self.nvars, self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in self.sorted_terms())
        return f"SparsePoly({self.nvars}, {self.ring}, {{{body}}})"

    def _check_compatible(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.nvars != other.nvars:
            raise ValueError("operands have different variable counts")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(self.nvars, self.ring, out)

    def __sub__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return SparsePoly(self.nvars, self.ring, out)

    def __neg__(self):
        return SparsePoly(self.nvars, self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        return self.mul(other)

    def mul(self, other, trunc=None):
        """Exact product; with ``trunc`` (a WeightedBound) the terms above its cap
        are never formed."""
        self._check_compatible(other)
        out = {}
        if trunc is None:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = exp_add(e1, e2)
                    out[e] = out.get(e, 0) + c1 * c2
            return SparsePoly(self.nvars, self.ring, out)
        # Weights are additive on exponents, so with the right factor sorted
        # by weight each inner loop stops at the first pair above the bound.
        weight = trunc.weight_of
        right = sorted((weight(e), e, c) for e, c in other.terms.items())
        for e1, c1 in self.terms.items():
            room = trunc.bound - weight(e1)
            for w2, e2, c2 in right:
                if w2 > room:
                    break
                e = exp_add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly(self.nvars, self.ring, out)

    def scale(self, coeff):
        return SparsePoly(self.nvars, self.ring, {e: c * coeff for e, c in self.terms.items()})

    def mul_monomial(self, exponent, coeff=1):
        """Multiply by coeff * x^exponent; entries of ``exponent`` may be negative."""
        exponent = tuple(exponent)
        return SparsePoly(self.nvars, self.ring,
                          {exp_add(e, exponent): c * coeff for e, c in self.terms.items()})

    def pow(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.nvars, self.ring, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- support manipulation -------------------------------------------------

    def truncate(self, trunc):
        """Keep exactly the terms ``trunc`` (a WeightedBound) admits; None keeps all."""
        if trunc is None:
            return self
        return SparsePoly(self.nvars, self.ring,
                          {e: c for e, c in self.terms.items() if trunc.admits(e)})

    def restrict_to(self, points):
        wanted = {tuple(p) for p in points}
        return SparsePoly(self.nvars, self.ring,
                          {e: c for e, c in self.terms.items() if e in wanted})

    def map_coefficients(self, ring, fn):
        """Push coefficients through ``fn`` into another ring (zeros dropped)."""
        return SparsePoly(self.nvars, ring, ((e, fn(c)) for e, c in self.terms.items()))

    def min_weighted_degree(self, weights):
        """Smallest <weights, alpha> over the support, or None for the zero poly."""
        if not self.terms:
            return None
        return min(exp_dot(weights, e) for e in self.terms)
