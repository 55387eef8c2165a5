import random
from fractions import Fraction

import pytest

from edgelift.coeffs import (NotInvertible, RingDescriptor, prime_field,
                             rationals, residue_ring)

RINGS = [rationals(), prime_field(5), prime_field(2), residue_ring(2, 6),
         residue_ring(7, 3)]


def random_scalar(ring, rng):
    if ring.kind == "Q":
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    return ring.normalize(rng.randrange(ring.modulus))


def test_descriptor_strings():
    assert str(rationals()) == "Q"
    assert str(prime_field(5)) == "F5"
    assert str(residue_ring(2, 32)) == "Z/2^32"
    for text in ("Q", "F5", "Z/2^32", "Z/7^3"):
        assert str(RingDescriptor.from_string(text)) == text


@pytest.mark.parametrize("text, ring", [
    ("Q", "Q"), (" F7 ", "F7"), ("F13", "F13"), ("Z/5", "Z/5^1"), ("Z/5^12", "Z/5^12"),
    ("F1_3", None), ("Z/5^", None), ("F+7", None), ("F 7", None), ("Z/5^+2", None),
    ("Z/ 5^2", None), ("F", None), ("Z/", None), ("Z/5^2^3", None), ("q", None),
    ("F\u0663", None), ("", None), ("Z5", None)])
def test_descriptor_grammar(text, ring):
    # exactly Q, F<p>, Z/<p> and Z/<p>^<k> in ASCII digits, after a strip
    if ring is not None:
        assert str(RingDescriptor.from_string(text)) == ring
        return
    with pytest.raises(ValueError, match=r"expected Q, F<p>, Z/<p> or Z/<p>\^<k>"):
        RingDescriptor.from_string(text)


def test_rational_scalars_hold_one_form():
    # over Q a scalar the ring hands out is an int when integral and
    # otherwise a Fraction with denominator above 1
    q = rationals()
    for c in (q.normalize(Fraction(0)), q.normalize(Fraction(1)), q.normalize(3), q.div(4, 2),
              q.normalize(Fraction(6, 3)), q.invert(Fraction(1, 3)),
              q.div(Fraction(3, 2), Fraction(1, 2)), q.normalize(True), q.div(6, 1),
              q.div(Fraction(6, 3), 1), q.div(Fraction(6, 3), Fraction(1))):
        assert type(c) is int
    for c in (q.invert(2), q.div(2, 4), q.div(1, 2),
              q.div(Fraction(1, 2), 1), q.div(Fraction(2, 4), Fraction(1))):
        assert type(c) is Fraction and c == Fraction(1, 2)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(2**31 + 11)
    with pytest.raises(ValueError):
        residue_ring(6, 2)
    with pytest.raises(ValueError):
        residue_ring(3, 0)


def test_invert_examples():
    q = rationals()
    assert q.invert(Fraction(2, 3)) == Fraction(3, 2)
    f5 = prime_field(5)
    assert f5.invert(3) == 2
    z26 = residue_ring(2, 6)
    with pytest.raises(NotInvertible):
        z26.invert(2)
    with pytest.raises(NotInvertible):
        f5.invert(0)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_field_axioms_randomized(ring):
    # scalars combine with Python's operators and settle with normalize
    rng = random.Random(f"axioms:{ring}")
    n = ring.normalize
    for _ in range(1000):
        a = random_scalar(ring, rng)
        b = random_scalar(ring, rng)
        c = random_scalar(ring, rng)
        assert n(n(a + b) + c) == n(a + n(b + c))
        assert n(a * n(b + c)) == n(n(a * b) + n(a * c))
        assert n(a + n(-a)) == 0
        if ring.is_unit(a):
            assert n(a * ring.invert(a)) == 1


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_div_by_one_by_a_unit_and_by_a_non_unit(ring):
    # a / 1 is a normalized, also from an unreduced numerator (the parser's
    # term); a / b by a unit b is the a' with a' * b = a; a non-unit b
    # (zero, or over Z/p^k a multiple of p) raises NotInvertible
    rng = random.Random(31 + len(str(ring)))
    for _ in range(200):
        a = ring.normalize(random_scalar(ring, rng))
        raw = a + 3 * ring.modulus if ring.modulus else a
        assert ring.div(raw, 1) == ring.normalize(raw) == a
        assert type(ring.div(raw, 1)) is type(a)
        assert ring.div(raw, 1) == ring.normalize(raw * ring.invert(1))
        b = random_scalar(ring, rng)
        if ring.is_unit(b):
            assert ring.normalize(ring.div(raw, b) * b) == ring.normalize(a)
        else:
            with pytest.raises(NotInvertible):
                ring.div(raw, b)
        if ring.kind == "Q":
            assert ring.div(a, Fraction(1)) == a and type(ring.div(a, Fraction(1))) is type(a)
        with pytest.raises(NotInvertible):
            ring.div(a, 0)
        if ring.kind == "Z":
            with pytest.raises(NotInvertible):
                ring.div(a, ring.p * rng.randint(1, 50))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_normalize_idempotent(ring):
    rng = random.Random(7)
    for _ in range(200):
        a = random_scalar(ring, rng)
        raw = a + ring.modulus if ring.modulus else a
        once = ring.normalize(raw)
        assert ring.normalize(once) == once
        if ring.modulus:
            assert 0 <= once < ring.modulus


def test_residue_field_bridge():
    z = residue_ring(3, 4)
    k = z.residue_field()
    assert k == prime_field(3)
    assert z.to_residue(80) == 80 % 3
    assert rationals().residue_field() == rationals()


def test_div_maps_a_fraction_into_a_finite_ring():
    f7 = prime_field(7)
    assert f7.div(1, 2) == 4  # 2*4 = 8 = 1 mod 7
    with pytest.raises(NotInvertible):
        f7.div(1, 7)
