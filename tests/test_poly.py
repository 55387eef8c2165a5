import random
from fractions import Fraction

import pytest

from edgelift.coeffs import RingMismatch, prime_field, rationals, residue_ring
from edgelift.expr import VarTable, parse
from edgelift.poly import SparsePoly, WeightedBound, exp_add, multiply, weighted_truncate

Q = rationals()
XYZ = VarTable(("x", "y", "z"))


def random_scalar(ring, rng):
    """A scalar of ``ring``; over Z/p^k a third are powers of p (zero divisors)."""
    if ring.kind == "Q":
        return Fraction(rng.randint(-9, 9))
    if ring.k > 1 and rng.random() < 1 / 3:
        return ring.p ** rng.randint(1, ring.k - 1)
    return rng.randrange(ring.modulus)


def random_poly(nvars, ring, rng, max_terms=6, max_exp=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = terms.get(e, ring.zero()) + random_scalar(ring, rng)
    return SparsePoly(nvars, ring, terms)


def assert_canonical(f):
    """Every stored coefficient is nonzero, of the ring's scalar type, and reduced."""
    scalar = Fraction if f.ring.kind == "Q" else int
    for c in f.terms.values():
        assert c != 0 and type(c) is scalar and f.ring.normalize(c) == c


def test_multiply_basic():
    vt = VarTable(("x", "y"))
    f = parse("x + y", vt, Q)
    g = parse("x - y", vt, Q)
    assert f * g == parse("x^2 - y^2", vt, Q)
    one = SparsePoly.constant(2, Q, 1)
    assert f * one == f


def test_multiply_two_factor_product():
    vt = VarTable(("x1", "x2", "x3"))
    f = parse("x3^2 + x1*x2", vt, Q)
    g = parse("x3 + x1*x2", vt, Q)
    expect = parse("x3^3 + x1*x2*x3^2 + x1*x2*x3 + x1^2*x2^2", vt, Q)
    assert f * g == expect


def test_weighted_truncate_simple():
    vt = VarTable(("x",))
    f = parse("x + x^3", vt, Q)
    assert weighted_truncate(f, WeightedBound((1,), 2)) == parse("x", vt, Q)
    # a bound above every support weight is a no-op
    assert weighted_truncate(f, WeightedBound((1,), 99)) == f


def test_weighted_truncate_example_polynomial():
    f = parse("x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2", XYZ, Q)
    # oracle: weights under (1,1,1) are 8, 4, 6 and 14
    weights = {e: sum(e) for e in f.terms}
    assert sorted(weights.values()) == [4, 6, 8, 14]
    kept = weighted_truncate(f, WeightedBound((1, 1, 1), 8))
    assert set(kept.terms) == {e for e, w in weights.items() if w <= 8}
    assert (7, 5, 2) not in kept.terms
    assert len(kept) == 3


def test_ring_mismatch():
    f = SparsePoly.constant(2, Q, 1)
    g = SparsePoly.constant(2, prime_field(5), 1)
    with pytest.raises(RingMismatch):
        f * g


def test_no_stored_zero_coefficients():
    f = SparsePoly(2, Q, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in f.terms
    g = f - f
    assert not g.terms and not g


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(2, 6), residue_ring(3, 4)],
                         ids=str)
def test_ring_laws_randomized(ring):
    rng = random.Random(9001)
    for _ in range(120):
        f = random_poly(3, ring, rng)
        g = random_poly(3, ring, rng)
        h = random_poly(3, ring, rng)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        c = random_scalar(ring, rng)
        shift = tuple(rng.randint(0, 3) for _ in range(3))
        bound = WeightedBound((1, 2, 1), rng.randint(0, 12))
        for result in (f + g, f - g, -f, f * g, f.mul(g, bound), f.scale(c),
                       f.mul_monomial(shift, c)):
            assert_canonical(result)


def test_product_support_in_minkowski_sum():
    rng = random.Random(4242)
    for _ in range(80):
        f = random_poly(3, Q, rng)
        g = random_poly(3, Q, rng)
        sums = {exp_add(a, b) for a in f.terms for b in g.terms}
        assert set((f * g).terms) <= sums


def test_truncated_product_consistency():
    rng = random.Random(515)
    for _ in range(80):
        f = random_poly(3, Q, rng)
        g = random_poly(3, Q, rng)
        bound = WeightedBound((1, 2, 1), rng.randint(0, 12))
        lhs = weighted_truncate(f * g, bound)
        rhs = weighted_truncate(
            multiply(weighted_truncate(f, bound), weighted_truncate(g, bound), bound),
            bound)
        assert lhs == rhs


def test_truncated_multiply_matches_full():
    rng = random.Random(77)
    for _ in range(60):
        f = random_poly(2, Q, rng)
        g = random_poly(2, Q, rng)
        bound = WeightedBound((2, 3), rng.randint(0, 15))
        assert multiply(f, g, bound) == weighted_truncate(f * g, bound)


def test_sorted_terms_degree_lex():
    f = parse("x^2 + y^2 + x*y + x + y + 1", VarTable(("x", "y")), Q)
    order = [e for e, _ in f.sorted_terms()]
    assert order == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
