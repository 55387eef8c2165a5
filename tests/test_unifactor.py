import random
from fractions import Fraction

import pytest

from edgelift.coeffs import prime_field, rationals, residue_ring
from edgelift.poly import SparsePoly
from edgelift.unifactor import (DegreeTooLarge, UnsupportedRing, degree,
                                factor_univariate, padd, pgcd, pmul, ppow, pscale,
                                psub, trim)

Q = rationals()


def expand(unit, factors, ring):
    out = [unit]
    for coeffs, mult in factors:
        out = pmul(out, ppow(list(coeffs), mult, ring), ring)
    return trim(out, ring)


def test_simple_rational_factorizations():
    unit, factors = factor_univariate(Q, [Fraction(-1), Fraction(0), Fraction(1)])
    assert unit == 1
    assert factors == [([Fraction(-1), Fraction(1)], 1), ([Fraction(1), Fraction(1)], 1)]

    unit, factors = factor_univariate(Q, [Fraction(1), Fraction(2), Fraction(1)])
    assert factors == [([Fraction(1), Fraction(1)], 2)]

    # irreducible quadratic
    unit, factors = factor_univariate(Q, [Fraction(1), Fraction(0), Fraction(1)])
    assert len(factors) == 1 and factors[0][1] == 1


def test_f2_square():
    f2 = prime_field(2)
    unit, factors = factor_univariate(f2, [1, 0, 1])  # t^2 + 1 over F_2
    assert unit == 1
    assert factors == [([1, 1], 2)]


def test_f3_cube():
    f3 = prime_field(3)
    # 1 + 2 t^3 = 2 (t + 2)^3 over F_3
    unit, factors = factor_univariate(f3, [1, 0, 0, 2])
    assert expand(unit, factors, f3) == [1, 0, 0, 2]
    assert factors == [([2, 1], 3)]


def test_unsupported_and_caps():
    with pytest.raises(UnsupportedRing):
        factor_univariate(residue_ring(2, 5), [1, 1])
    with pytest.raises(DegreeTooLarge):
        factor_univariate(Q, [Fraction(1)] * 26)
    with pytest.raises(ValueError):
        factor_univariate(Q, [Fraction(3)])


def test_rational_units_and_content():
    # 6 t^2 - 6 = 6 (t-1)(t+1)
    unit, factors = factor_univariate(Q, [Fraction(-6), Fraction(0), Fraction(6)])
    assert unit == 6
    assert expand(unit, factors, Q) == [Fraction(-6), Fraction(0), Fraction(6)]


def test_zassenhaus_bigger():
    # (t^2 + t + 1)(t^3 - 2)(t - 5)
    f = pmul(pmul([Fraction(1), Fraction(1), Fraction(1)],
                  [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)], Q),
             [Fraction(-5), Fraction(1)], Q)
    unit, factors = factor_univariate(Q, f)
    assert unit == 1
    assert sorted(degree(c) for c, _ in factors) == [1, 2, 3]
    assert expand(unit, factors, Q) == f


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_fp_random_round_trip(p):
    ring = prime_field(p)
    rng = random.Random(600 + p)
    for _ in range(40):
        deg = rng.randint(1, 9)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        unit, factors = factor_univariate(ring, f, seed=rng.randint(0, 10**6))
        assert expand(unit, factors, ring) == trim(f, ring)
        for coeffs, _ in factors:
            # irreducibility spot-check: no root-splitting by any linear monic
            assert coeffs[-1] == 1
            if degree(coeffs) > 1 and p <= 11:
                for a in range(p):
                    assert degree(pgcd(coeffs, [a, 1], ring)) == 0


def test_q_random_round_trip():
    rng = random.Random(77)
    for _ in range(30):
        parts = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            part = ([Fraction(rng.randint(-4, 4)) for _ in range(deg)]
                    + [Fraction(rng.randint(1, 4))])
            parts.append(ppow(part, rng.randint(1, 3), Q))
        f = [Fraction(rng.randint(1, 5))]
        for part in parts:
            f = pmul(f, part, Q)
        unit, factors = factor_univariate(Q, f)
        assert expand(unit, factors, Q) == f
        for coeffs, _ in factors:
            assert coeffs[-1] > 0  # positive leading coefficient normalization
        assert len({tuple(coeffs) for coeffs, _ in factors}) == len(factors)


def test_factor_list_deterministic_across_seeds():
    ring = prime_field(13)
    f = [5, 1, 0, 7, 1, 2, 1]
    runs = {tuple(tuple(c) for c, m in factor_univariate(ring, f, seed=s)[1])
            for s in range(5)}
    assert len(runs) == 1


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(2, 6), residue_ring(3, 4)],
                         ids=str)
def test_dense_arithmetic_matches_sparse(ring):
    rng = random.Random(2718)

    def scalar():
        if ring.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if ring.k > 1 and rng.random() < 1 / 3:
            return ring.p ** rng.randint(1, ring.k - 1)  # a zero divisor
        return rng.randrange(ring.modulus)

    def sparse(cs):
        return SparsePoly(1, ring, {(i,): c for i, c in enumerate(cs)})

    def dense(f):
        return [f.coeff((i,)) for i in range(max((e[0] for e in f.terms), default=-1) + 1)]

    for _ in range(150):
        a = trim([scalar() for _ in range(rng.randint(0, 6))], ring)
        b = trim([scalar() for _ in range(rng.randint(0, 6))], ring)
        c = scalar()
        assert pmul(a, b, ring) == dense(sparse(a) * sparse(b))
        assert padd(a, b, ring) == dense(sparse(a) + sparse(b))
        assert psub(a, b, ring) == dense(sparse(a) - sparse(b))
        assert pscale(a, c, ring) == dense(sparse(a).scale(c))


def test_dense_product_of_zero_divisors_is_zero():
    assert pmul([0, 8], [8], residue_ring(2, 6)) == []
