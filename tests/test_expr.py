import random
from fractions import Fraction

import pytest

from edgelift.coeffs import prime_field, rationals, residue_ring
from edgelift.expr import (NegativeExponent, ParseError, UnknownVariable,
                           VarTable, parse, render)
from edgelift.poly import SparsePoly

Q = rationals()
XYZ = VarTable(("x", "y", "z"))


def test_parse_example_polynomial():
    f = parse("x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2", XYZ, Q)
    assert f.terms == {
        (6, 2, 0): Fraction(1),
        (0, 0, 4): Fraction(-1),
        (1, 1, 4): Fraction(1),
        (7, 5, 2): Fraction(-1),
    }


def test_parse_zero_and_constants():
    assert not parse("0", XYZ, Q)
    f = parse("y^3 + 270*y + 540", VarTable(("y",)), Q)
    assert f.terms == {(3,): 270 * 0 + 1, (1,): 270, (0,): 540}


def test_parse_rational_literals_and_unary_minus():
    vt = VarTable(("x",))
    f = parse("-2/3*x + 1/2", vt, Q)
    assert f.terms == {(1,): Fraction(-2, 3), (0,): Fraction(1, 2)}
    g = parse("--x", vt, Q)
    assert g.terms == {(1,): 1}


def test_parse_parentheses_and_powers():
    vt = VarTable(("x", "y"))
    f = parse("(x + y)^2", vt, Q)
    assert f == parse("x^2 + 2*x*y + y^2", vt, Q)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("x + ", XYZ, Q)
    assert err.value.position == 4
    with pytest.raises(UnknownVariable) as err:
        parse("x + w", XYZ, Q)
    assert err.value.position == 4 and err.value.name == "w"
    with pytest.raises(NegativeExponent):
        parse("x^-2", XYZ, Q)
    with pytest.raises(ParseError):
        parse("x y", XYZ, Q)  # no implicit multiplication
    with pytest.raises(ParseError):
        parse("x/2", XYZ, Q)  # '/' only inside rational literals
    with pytest.raises(ParseError):
        parse("", XYZ, Q)


def test_parse_literal_denominator_must_be_unit():
    with pytest.raises(ParseError):
        parse("1/5*x", XYZ, prime_field(5))


def test_render_zero():
    assert render(SparsePoly.zero(3, Q), XYZ) == "0"


def test_render_fixed_order():
    vt = VarTable(("x", "y", "z"))
    f = parse("x*y*z + x^3*y^3 + x^3*z^3 + y^3*z^3", vt, Q)
    assert render(f, vt) == "x*y*z + y^3*z^3 + x^3*z^3 + x^3*y^3"
    g = parse("x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2", vt, Q)
    assert render(g, vt) == "-z^4 + x*y*z^4 + x^6*y^2 - x^7*y^5*z^2"


def random_poly(nvars, ring, rng):
    terms = {}
    for _ in range(rng.randint(0, 7)):
        e = tuple(rng.randint(0, 6) for _ in range(nvars))
        if ring.kind == "Q":
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        else:
            c = rng.randrange(ring.modulus)
        terms[e] = c
    return SparsePoly(nvars, ring, terms)


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(2, 5)], ids=str)
def test_parse_render_round_trip(ring):
    rng = random.Random(1234)
    vt = VarTable(("a", "b2", "c_3"))
    for _ in range(1000):
        f = random_poly(3, ring, rng)
        assert parse(render(f, vt), vt, ring) == f


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(2, 5)], ids=str)
def test_parse_inverts_render_property(ring):
    # Built inside the test so that it skips, rather than breaking this
    # module, where hypothesis is not installed.
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    if ring.kind == "Q":
        scalars = st.fractions(min_value=-99, max_value=99, max_denominator=20)
    else:
        scalars = st.integers(0, ring.modulus - 1)
    vt = VarTable(("a", "b2", "c_3"))
    exponents = st.tuples(*[st.integers(0, 12)] * 3)

    @hp.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hp.given(st.dictionaries(exponents, scalars, max_size=8))
    def check(terms):
        f = SparsePoly(3, ring, terms)
        assert parse(render(f, vt), vt, ring) == f

    check()


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(5, 3)], ids=str)
def test_parse_matches_polynomial_arithmetic(ring):
    def const(q):
        return SparsePoly.constant(3, ring, ring.from_fraction(q))

    x, y, z = (SparsePoly.monomial(3, ring, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    one = const(1)
    cases = {
        "x + y - x": x + y - x,
        "x - x": SparsePoly.zero(3, ring),
        "x - x + x": x,
        "x*y + y*x": x * y + y * x,
        "(-2)^3*x": const(-8) * x,
        "-2^3*x": const(-8) * x,
        "2^0": one,
        "x^0": one,
        "0^0": one,
        "0^3": SparsePoly.zero(3, ring),
        "(x+1)^3": (x + one) * (x + one) * (x + one),
        "(2*x*y^2)^3": const(8) * x.pow(3) * y.pow(6),
        "1/2*x - 3/4*y + 1/4*x - 2/3": const(Fraction(3, 4)) * x - const(Fraction(3, 4)) * y
                                        - const(Fraction(2, 3)),
        "(1/2)^2*z": const(Fraction(1, 4)) * z,
    }
    for text, expected in cases.items():
        assert parse(text, XYZ, ring) == expected, text


def test_parse_huge_exponent_of_a_constant_mod_p():
    f101 = prime_field(101)
    assert parse("3^1000000000", VarTable(("x",)), f101) == SparsePoly.constant(
        1, f101, pow(3, 10**9, 101))
    assert parse("(3*x)^1000000000", VarTable(("x",)), f101) == SparsePoly.monomial(
        1, f101, (10**9,), pow(3, 10**9, 101))


def test_parse_work_is_linear_in_the_term_count(monkeypatch):
    # Counts, not time: how many polynomials parsing builds and how many
    # terms they hold in all.  A sum rebuilt at every sign holds ~n^2/2.
    built = []
    init = SparsePoly.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.terms))

    monkeypatch.setattr(SparsePoly, "__init__", counting)

    n = 400
    text = " + ".join(f"{i + 2}*x^{i % 7 + 2}*y^{i // 7 % 7 + 2}*z^{i // 49 + 2}"
                      for i in range(n))
    assert len(parse(text, XYZ, Q)) == n
    # each term is 4 atoms, 3 powers and 3 products
    assert len(built) <= 12 * n
    assert sum(built) <= 12 * n


def test_render_injective_on_sample():
    rng = random.Random(99)
    seen = {}
    for _ in range(500):
        f = random_poly(2, Q, rng)
        text = render(f, VarTable(("x", "y")))
        if text in seen:
            assert seen[text] == f
        seen[text] = f


def test_vartable_validation():
    with pytest.raises(ValueError):
        VarTable(("x", "x"))
    with pytest.raises(ValueError):
        VarTable(("2x",))
    assert VarTable.split(" x , y ").names == ("x", "y")
