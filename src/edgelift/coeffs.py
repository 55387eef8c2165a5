"""Exact coefficient arithmetic for the supported rings.

Three coefficient rings are available: the rationals Q, prime fields F_p,
and truncated residue rings Z/p^k.  Scalar values are plain Python objects in
one canonical form: over Q an ``int`` when integral and otherwise a
``Fraction`` with denominator above 1, elsewhere an integer residue in
``[0, p^k)``.  A :class:`RingDescriptor` supplies the arithmetic and hands out
canonical scalars, except that over Q ``add``, ``sub`` and ``mul`` return
Python's own result (two Fractions may add up to an integral one) for
``normalize`` to settle.  Everything is exact -- no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

RATIONALS = "Q"
PRIME_FIELD = "F"
RESIDUE_RING = "Z"

PRIME_BOUND = 2**31

_DESCRIPTOR = re.compile(r"Q|F([0-9]+)|Z/([0-9]+)(?:\^([0-9]+))?")


class NotInvertible(ArithmeticError):
    """Inversion of zero, or of a residue divisible by p."""


class RingMismatch(ValueError):
    """Operands belong to different coefficient rings."""


def is_prime(p):
    """Trial-division primality test; inputs are bounded by PRIME_BOUND."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class RingDescriptor:
    """Which ring coefficients live in: Q, F_p, or Z/p^k.

    Serializes as "Q", "F<p>" or "Z/<p>^<k>".
    """

    kind: str
    p: int = 0
    k: int = 0

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p or self.k:
                raise ValueError("rationals carry no modulus")
            return
        if self.kind not in (PRIME_FIELD, RESIDUE_RING):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if not (2 <= self.p < PRIME_BOUND) or not is_prime(self.p):
            raise ValueError(f"modulus base {self.p} is not a prime below 2^31")
        if self.kind == PRIME_FIELD:
            if self.k != 1:
                raise ValueError("prime field has k = 1")
        elif self.k < 1:
            raise ValueError("residue ring needs k >= 1")

    # -- construction and serialization -------------------------------------

    def __str__(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME_FIELD:
            return f"F{self.p}"
        return f"Z/{self.p}^{self.k}"

    @staticmethod
    def from_string(text):
        """The ring of "Q", "F<p>", "Z/<p>" or "Z/<p>^<k>", p and k in ASCII
        digits; surrounding whitespace is ignored."""
        text = text.strip()
        match = _DESCRIPTOR.fullmatch(text)
        if match is None:
            raise ValueError(f"cannot parse ring descriptor {text!r}: expected Q, F<p>, "
                             "Z/<p> or Z/<p>^<k> with p and k in decimal digits")
        prime, base, exp = match.groups()
        if prime:
            return prime_field(int(prime))
        if base:
            return residue_ring(int(base), int(exp or 1))
        return rationals()

    # -- basic queries -------------------------------------------------------

    @cached_property
    def modulus(self):
        """p^k for residue rings, p for prime fields, None over Q; computed once."""
        if self.kind == RATIONALS:
            return None
        return self.p**self.k

    # -- element arithmetic --------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return self.normalize(n)

    def from_fraction(self, q):
        """Map a rational into the ring; the denominator must be a unit."""
        if self.kind == RATIONALS:
            return self.normalize(q)
        q = Fraction(q)
        return self.mul(self.from_int(q.numerator), self.invert(self.from_int(q.denominator)))

    def normalize(self, a):
        """Canonical form: over Q an int when integral and otherwise a reduced
        Fraction, whose denominator is then above 1; a residue in [0, p^k)
        otherwise."""
        if self.kind == RATIONALS:
            if a.__class__ is int:
                return a
            if a.__class__ is not Fraction:
                a = Fraction(a)
            return a.numerator if a.denominator == 1 else a
        return a % self.modulus

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        c = a + b
        return c if self.kind == RATIONALS else c % self.modulus

    def sub(self, a, b):
        c = a - b
        return c if self.kind == RATIONALS else c % self.modulus

    def mul(self, a, b):
        c = a * b
        return c if self.kind == RATIONALS else c % self.modulus

    def neg(self, a):
        return -a if self.kind == RATIONALS else (-a) % self.modulus

    def invert(self, a):
        """Multiplicative inverse; raises NotInvertible for zero or p | a."""
        if self.kind == RATIONALS:
            if a == 0:
                raise NotInvertible("division by zero")
            return self.normalize(1 / Fraction(a))
        a = a % self.modulus
        if a == 0 or a % self.p == 0:
            raise NotInvertible(f"{a} is not a unit in {self}")
        return pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.normalize(self.mul(a, self.invert(b)))

    def is_unit(self, a):
        if self.kind == RATIONALS:
            return a != 0
        return a % self.p != 0

    # -- residue-field bridge (used by restrictions and p-adic lifting) ------

    def residue_field(self):
        """The field the ring's restrictions live in: Q, F_p, or F_p for Z/p^k."""
        if self.kind == RESIDUE_RING:
            return prime_field(self.p)
        return self

    def to_residue(self, a):
        """Image of a scalar in the residue field."""
        if self.kind == RESIDUE_RING:
            return a % self.p
        return a


def rationals():
    return RingDescriptor(RATIONALS)


def prime_field(p):
    return RingDescriptor(PRIME_FIELD, p, 1)


def residue_ring(p, k):
    return RingDescriptor(RESIDUE_RING, p, k)
