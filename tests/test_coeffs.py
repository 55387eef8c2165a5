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
    return ring.from_int(rng.randrange(ring.modulus))


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
    for c in (q.zero(), q.one(), q.from_int(3), q.from_fraction(Fraction(4, 2)),
              q.normalize(Fraction(6, 3)), q.invert(Fraction(1, 3)),
              q.div(Fraction(3, 2), Fraction(1, 2)), q.normalize(True)):
        assert type(c) is int
    for c in (q.invert(2), q.from_fraction(Fraction(2, 4)), q.div(1, 2)):
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
    rng = random.Random(20240 + hash(str(ring)) % 1000)
    for _ in range(1000):
        a = random_scalar(ring, rng)
        b = random_scalar(ring, rng)
        c = random_scalar(ring, rng)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero()
        if ring.is_unit(a):
            assert ring.mul(a, ring.invert(a)) == ring.one()


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


def test_from_fraction_in_finite_rings():
    f7 = prime_field(7)
    assert f7.from_fraction(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7
    with pytest.raises(NotInvertible):
        f7.from_fraction(Fraction(1, 7))
