"""Exact coefficient arithmetic for the supported rings.

Three coefficient rings are available: the rationals Q, prime fields F_p,
and truncated residue rings Z/p^k.  Scalar values are plain Python objects
(``Fraction`` over Q, canonical integer residues in ``[0, p^k)`` otherwise);
a :class:`RingDescriptor` supplies the arithmetic.  Everything is exact --
no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

RATIONALS = "Q"
PRIME_FIELD = "F"
RESIDUE_RING = "Z"

PRIME_BOUND = 2**31


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
        text = text.strip()
        if text == "Q":
            return rationals()
        if text.startswith("F"):
            return prime_field(int(text[1:]))
        if text.startswith("Z/"):
            base, _, exp = text[2:].partition("^")
            return residue_ring(int(base), int(exp) if exp else 1)
        raise ValueError(f"cannot parse ring descriptor {text!r}")

    # -- basic queries -------------------------------------------------------

    @cached_property
    def modulus(self):
        """p^k for residue rings, p for prime fields, None over Q; computed once."""
        if self.kind == RATIONALS:
            return None
        return self.p**self.k

    # -- element arithmetic --------------------------------------------------

    def zero(self):
        return Fraction(0) if self.kind == RATIONALS else 0

    def one(self):
        return Fraction(1) if self.kind == RATIONALS else 1

    def from_int(self, n):
        if self.kind == RATIONALS:
            return Fraction(n)
        return n % self.modulus

    def from_fraction(self, q):
        """Map a rational into the ring; the denominator must be a unit."""
        q = Fraction(q)
        if self.kind == RATIONALS:
            return q
        return self.mul(self.from_int(q.numerator), self.invert(self.from_int(q.denominator)))

    def normalize(self, a):
        """Canonical form: reduced Fraction over Q, residue in [0, p^k) otherwise."""
        if self.kind == RATIONALS:
            # A Fraction is immutable and already reduced.
            return a if isinstance(a, Fraction) else Fraction(a)
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
            return 1 / Fraction(a)
        a = a % self.modulus
        if a == 0 or a % self.p == 0:
            raise NotInvertible(f"{a} is not a unit in {self}")
        return pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.invert(b))

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


def plain(a):
    """The scalar a in the form Python computes with fastest: an integral
    Fraction as its int numerator, whose arithmetic skips Fraction's gcd
    normalization; anything else unchanged.  The two are equal as numbers,
    and normalize (so the SparsePoly constructor) turns the int back into a
    Fraction over Q."""
    return a.numerator if a.__class__ is Fraction and a.denominator == 1 else a


def rationals():
    return RingDescriptor(RATIONALS)


def prime_field(p):
    return RingDescriptor(PRIME_FIELD, p, 1)


def residue_ring(p, k):
    return RingDescriptor(RESIDUE_RING, p, k)
