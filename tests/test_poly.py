import random
from fractions import Fraction
from math import gcd

import pytest

from edgelift.coeffs import RingMismatch, prime_field, rationals, residue_ring
from edgelift.expr import VarTable, parse
from edgelift.lift import (EdgePrimePower, SplitRequest, edge_restriction, lift_factorization,
                           reducibility_witness)
from edgelift.newton import build
from edgelift.poly import (SparsePoly, WeightedBound, exp_add, exp_dot, exp_min, exp_neg,
                           exp_scale, exp_sub, primitive_vector)
from edgelift.unifactor import factor_univariate

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


def assert_canonical_scalar(ring, c):
    """c is in the ring's one form: over Q an int when integral and a Fraction
    with denominator above 1 otherwise, a residue in [0, p^k) otherwise."""
    if ring.kind == "Q":
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    else:
        assert type(c) is int and 0 <= c < ring.modulus, c


def assert_canonical(f):
    """Every stored coefficient is nonzero and in the ring's one form."""
    for c in f.terms.values():
        assert c != 0
        assert_canonical_scalar(f.ring, c)


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
    assert f.truncate(WeightedBound((1,), 2)) == parse("x", vt, Q)
    # a bound above every support weight is a no-op
    assert f.truncate(WeightedBound((1,), 99)) == f


def test_weighted_bound_with_zero_weights_and_a_negative_cutoff():
    vt = VarTable(("x", "y"))
    f = parse("1 + x + y + x*y^3 + x^2", vt, Q)
    # weight 0 on y: the cap is on the degree in x alone
    assert f.truncate(WeightedBound((1, 0), 1)) == parse("1 + x + y + x*y^3", vt, Q)
    with pytest.raises(ValueError):
        WeightedBound((1, 1), -1)


def test_weighted_truncate_example_polynomial():
    f = parse("x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2", XYZ, Q)
    # oracle: weights under (1,1,1) are 8, 4, 6 and 14
    weights = {e: sum(e) for e in f.terms}
    assert sorted(weights.values()) == [4, 6, 8, 14]
    kept = f.truncate(WeightedBound((1, 1, 1), 8))
    assert set(kept.terms) == {e for e, w in weights.items() if w <= 8}
    assert (7, 5, 2) not in kept.terms
    assert len(kept) == 3


def test_rational_results_hold_one_scalar_form():
    # over Q every stored coefficient and every scalar of a public result is
    # an int when integral, and otherwise a Fraction with denominator above 1
    half = SparsePoly(1, Q, [((1,), Fraction(1, 2)), ((0,), Fraction(3, 2))])
    polys = [parse("(x+y+z+1)^6", XYZ, Q), parse("4/2*x + 1/3*y", XYZ, Q), half + half,
             SparsePoly(1, Q, [((1,), Fraction(1, 2)), ((1,), Fraction(1, 2))])]
    f = parse("x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2", XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))
    g, h, _ = lift_factorization(f, rest, split, 40)
    polys += [g, h, rest.poly]
    for poly in polys:
        assert_canonical(poly)
    assert half.terms == {(1,): Fraction(1, 2), (0,): Fraction(3, 2)}
    assert type((half + half).terms[(1,)]) is int

    scalars = list(rest.univariate)
    for coeffs in ([-2, 0, 4], [Fraction(-3, 2), 0, 3], [6, 5, 1], [1, Fraction(1, 2), 0, 2]):
        unit, factors = factor_univariate(Q, coeffs)
        scalars += [unit] + [c for factor, _ in factors for c in factor]
    for text, unit in (("3/2*x^2 - 3*x*y + 3/2*y^2", Fraction(3, 2)),
                       ("2*x^2 - 4*x*y + 2*y^2", 2)):
        pp = reducibility_witness(parse(text, XYZ, Q), 10)
        assert isinstance(pp, EdgePrimePower) and pp.unit == unit
        assert_canonical(pp.factor)
        scalars.append(pp.unit)
    for c in scalars:
        assert_canonical_scalar(Q, c)


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
        lhs = (f * g).truncate(bound)
        rhs = f.truncate(bound).mul(g.truncate(bound), bound).truncate(bound)
        assert lhs == rhs


def test_truncated_multiply_matches_full():
    rng = random.Random(77)
    for ring in (Q, residue_ring(5, 3)):
        for _ in range(60):
            f = random_poly(2, ring, rng)
            g = random_poly(2, ring, rng)
            bound = WeightedBound((2, 3), rng.randint(0, 15))
            # The truncated product sorts the right factor by weight itself;
            # hand it one stored heaviest first.
            g = SparsePoly(2, ring, sorted(g.terms.items(),
                                           key=lambda t: -bound.weight_of(t[0])))
            product = f.mul(g, bound)
            assert product == (f * g).truncate(bound)
            assert_canonical(product)


def test_sorted_terms_degree_lex():
    f = parse("x^2 + y^2 + x*y + x + y + 1", VarTable(("x", "y")), Q)
    order = [e for e, _ in f.sorted_terms()]
    assert order == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


# -- property tests (hypothesis) ------------------------------------------------
# Each test builds its check inside, so without hypothesis installed it skips
# instead of taking the rest of this module down with it.

def property_settings(hp):
    return hp.settings(derandomize=True, database=None, deadline=None, max_examples=100)


def poly_strategy(st, ring):
    """Polynomials in 3 variables of at most 6 terms with exponents up to 4;
    over Z/p^k the coefficients include the zero divisors."""
    if ring.kind == "Q":
        scalars = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        scalars = st.integers(0, ring.modulus - 1)
    exponents = st.tuples(*[st.integers(0, 4)] * 3)
    return st.dictionaries(exponents, scalars, max_size=6).map(
        lambda terms: SparsePoly(3, ring, terms))


def test_exponent_kernel_matches_its_elementwise_definitions():
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    # mul_monomial takes negative exponents; vectors of unequal length stop
    # at the shorter one, as zip() does.
    vectors = st.lists(st.integers(-50, 50), max_size=5).map(tuple)

    @property_settings(hp)
    @hp.given(vectors, vectors, st.integers(-9, 9))
    def check(a, b, n):
        pairs = list(zip(a, b))
        assert exp_add(a, b) == tuple(x + y for x, y in pairs)
        assert exp_sub(a, b) == tuple(x - y for x, y in pairs)
        assert exp_min(a, b) == tuple(min(x, y) for x, y in pairs)
        assert exp_dot(a, b) == sum(x * y for x, y in pairs)
        assert exp_neg(a) == tuple(-x for x in a)
        assert exp_scale(a, n) == tuple(n * x for x in a)
        g = 0
        for x in a:
            g = gcd(g, abs(x))
        if g:
            assert primitive_vector(a) == tuple(x // g for x in a)

    check()


def reference_product(f, g, trunc=None):
    """f*g as a plain dict of exponent tuples, cut at ``trunc`` if given."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if trunc is None or sum(w * x for w, x in zip(trunc.weights, e)) <= trunc.bound:
                out[e] = out.get(e, 0) + c1 * c2
    ring = f.ring
    return {e: ring.normalize(c) for e, c in out.items() if ring.normalize(c) != 0}


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(2, 5)], ids=str)
def test_products_match_a_reference_product(ring):
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    polys = poly_strategy(st, ring)
    # any integer weights: the truncated product only needs them additive
    bounds = st.builds(WeightedBound, st.tuples(*[st.integers(-2, 4)] * 3), st.integers(0, 24))

    @property_settings(hp)
    @hp.given(polys, polys, bounds)
    def check(f, g, trunc):
        assert f.mul(g).terms == reference_product(f, g)
        assert f.mul(g, trunc).terms == reference_product(f, g, trunc)

    check()
