import random
import sys
from fractions import Fraction

import pytest

from edgelift.coeffs import RingDescriptor, prime_field, rationals, residue_ring
from edgelift.expr import (ExprError, NegativeExponent, ParseError, UnknownVariable,
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
    # the literal is read in lowest terms
    assert parse("5/5*x - 0/5", XYZ, prime_field(5)) == parse("x", XYZ, prime_field(5))


# (text, ring, exception class, message, position) of malformed input
MALFORMED = [
    ("x + ", "Q", ParseError, "expected a number, variable or '(' (at position 4)", 4),
    ("x y", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 2)", 2),
    ("x/2", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 1)", 1),
    ("x^-2", "Q", NegativeExponent, "exponents must be nonnegative integers (at position 2)", 2),
    ("x^ -1", "Q", NegativeExponent, "exponents must be nonnegative integers (at position 3)", 3),
    ("x^2^3", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 3)", 3),
    ("(x", "Q", ParseError, "expected ')' (at position 2)", 2),
    ("(x + y", "Q", ParseError, "expected ')' (at position 6)", 6),
    ("x)", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 1)", 1),
    ("x + (y))", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 7)", 7),
    ("2^x", "Q", ParseError, "expected a nonnegative integer exponent (at position 2)", 2),
    ("2^(3)", "Q", ParseError, "expected a nonnegative integer exponent (at position 2)", 2),
    ("x^", "Q", ParseError, "expected a nonnegative integer exponent (at position 2)", 2),
    ("x**2", "Q", ParseError, "expected a number, variable or '(' (at position 2)", 2),
    ("1/5*x", "F5", ParseError,
     "expected a literal with unit denominator in F5 (at position 0)", 0),
    ("2*1/3*x", "Z/3^4", ParseError,
     "expected a literal with unit denominator in Z/3^4 (at position 2)", 2),
    ("x + w", "Q", UnknownVariable, "unknown variable 'w' (at position 4)", 4),
    ("x_1 + y", "Q", UnknownVariable, "unknown variable 'x_1' (at position 0)", 0),
    ("x + \u00e9", "Q", ParseError, "expected a number, variable or operator (at position 4)", 4),
    # an unrecognized character is reported before any grammar error
    ("x + + \u00e9", "Q", ParseError,
     "expected a number, variable or operator (at position 6)", 6),
    ("x^\u0663", "Q", ParseError, "expected a number, variable or operator (at position 2)", 2),
    ("x$y", "Q", ParseError, "expected a number, variable or operator (at position 1)", 1),
    ("x^2.5", "Q", ParseError, "expected a number, variable or operator (at position 3)", 3),
    # a name starts with a letter, and only ASCII letters and digits count
    ("_x", "Q", ParseError, "expected a number, variable or operator (at position 0)", 0),
    ("1_0", "Q", ParseError, "expected a number, variable or operator (at position 1)", 1),
    ("x²", "Q", ParseError, "expected a number, variable or operator (at position 1)", 1),
    ("é", "Q", ParseError, "expected a number, variable or operator (at position 0)", 0),
    # tabs and newlines are whitespace, and count in the positions
    ("x +\t\n", "Q", ParseError, "expected a number, variable or '(' (at position 5)", 5),
    ("x\ty", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 2)", 2),
    ("x\n*\t(y", "Q", ParseError, "expected ')' (at position 6)", 6),
    ("", "Q", ParseError, "expected a nonempty expression (at position 0)", 0),
    ("   ", "Q", ParseError, "expected a nonempty expression (at position 0)", 0),
    ("+x", "Q", ParseError, "expected a number, variable or '(' (at position 0)", 0),
    ("x +* y", "Q", ParseError, "expected a number, variable or '(' (at position 3)", 3),
    ("()", "Q", ParseError, "expected a number, variable or '(' (at position 1)", 1),
    ("x - -", "Q", ParseError, "expected a number, variable or '(' (at position 5)", 5),
    ("-", "Q", ParseError, "expected a number, variable or '(' (at position 1)", 1),
    ("x*", "Q", ParseError, "expected a number, variable or '(' (at position 2)", 2),
    ("x +   ", "Q", ParseError, "expected a number, variable or '(' (at position 6)", 6),
    ("1/", "Q", ParseError, "expected an integer denominator (at position 2)", 2),
    ("1/x", "Q", ParseError, "expected an integer denominator (at position 2)", 2),
    ("1/-2", "Q", ParseError, "expected an integer denominator (at position 2)", 2),
    ("1/2/3", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 3)", 3),
    ("3x", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 1)", 1),
    ("x^2 y", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 4)", 4),
    ("(x)(y)", "Q", ParseError, "expected '+', '-', '*' or end of input (at position 3)", 3),
]


@pytest.mark.parametrize("text, ring, error, message, position", MALFORMED,
                         ids=[repr(case[0]) for case in MALFORMED])
def test_malformed_input_error(text, ring, error, message, position):
    with pytest.raises(ExprError) as err:
        parse(text, XYZ, RingDescriptor.from_string(ring))
    assert type(err.value) is error
    assert (str(err.value), err.value.position) == (message, position)


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
        return SparsePoly.constant(3, ring, ring.div(q.numerator, q.denominator))

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
        # a single term over Z/5^3, which is not raised to the power again
        "(25*x + y)^5*x": (const(25) * x + y).pow(5) * x,
    }
    for text, expected in cases.items():
        assert parse(text, XYZ, ring) == expected, text


# precedence levels of the grammar: a child below the level its parent
# needs is parenthesized
SUM, TERM, UNARY, POWER, ATOM = range(5)


def _expression_trees(st, ring, depth):
    """Strategy for (text, level, SparsePoly in x, y, z) of expression trees
    of the given depth: each node above the leaves is a sum, a product, a
    unary-minus chain, a power (^0 included) or extra parentheses, and the
    leaves are variables and literals, integer or rational, some raised to
    a power."""
    def paren(node, level):
        text, at, f = node
        return (f"({text})", ATOM, f) if at < level else node

    def literal(a, b, power):
        text = str(a) if b == 1 else f"{a}/{b}"
        q = Fraction(a, b)
        f = SparsePoly.constant(3, ring, ring.div(q.numerator, q.denominator))
        if power is None:
            return text, ATOM, f
        return f"{text}^{power}", POWER, f.pow(power)

    units = st.integers(1, 12)
    if ring.modulus is not None:
        units = units.filter(lambda b: b % ring.p)
    powers = st.none() | st.integers(0, 3)
    leaves = (st.builds(literal, st.integers(0, 30), st.just(1), powers)
              | st.builds(literal, st.integers(0, 30), units, powers)
              | st.sampled_from([(name, ATOM, SparsePoly.monomial(3, ring, e))
                                 for name, e in zip("xyz", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))]))
    if depth == 0:
        return leaves
    child = _expression_trees(st, ring, depth - 1)
    space = st.sampled_from(["", " "])

    def total(first, rest):
        text, _, f = paren(first, TERM)
        for (sign, gap), node in rest:
            node = paren(node, TERM)
            text += f"{gap}{sign}{gap}{node[0]}"
            f = f + node[2] if sign == "+" else f - node[2]
        return text, SUM, f

    def product(factors):
        factors = [paren(node, UNARY) for node in factors]
        f = factors[0][2]
        for node in factors[1:]:
            f = f * node[2]
        return "*".join(node[0] for node in factors), TERM, f

    def minus(count, node):
        text, _, f = paren(node, UNARY)
        return "-" * count + text, UNARY, -f if count % 2 else f

    def power(node, n):
        text, _, f = paren(node, ATOM)
        return f"{text}^{n}", POWER, f.pow(n)

    def nested(count, node):
        text, _, f = node
        return "(" * count + text + ")" * count, ATOM, f

    signs = st.tuples(st.sampled_from("+-"), space)
    return (st.builds(total, child, st.lists(st.tuples(signs, child), min_size=1, max_size=3))
            | st.builds(product, st.lists(child, min_size=2, max_size=3))
            | st.builds(minus, st.integers(1, 4), child)
            | st.builds(power, child, st.integers(0, 3))
            | st.builds(nested, st.integers(1, 3), child))


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(3, 4)], ids=str)
def test_parse_gives_the_polynomial_an_expression_tree_denotes(ring):
    """The parsed text of a random expression tree equals the SparsePoly
    that SparsePoly arithmetic builds from the same tree."""
    hp = pytest.importorskip("hypothesis")

    @hp.settings(derandomize=True, database=None, deadline=None, max_examples=200,
                 suppress_health_check=[hp.HealthCheck.too_slow])
    @hp.given(_expression_trees(hp.strategies, ring, 4))
    def check(node):
        text, _, f = node
        assert parse(text, XYZ, ring) == f, text

    check()


def test_parse_huge_exponent_of_a_constant_mod_p():
    f101 = prime_field(101)
    assert parse("3^1000000000", VarTable(("x",)), f101) == SparsePoly.constant(
        1, f101, pow(3, 10**9, 101))
    assert parse("(3*x)^1000000000", VarTable(("x",)), f101) == SparsePoly.monomial(
        1, f101, (10**9,), pow(3, 10**9, 101))


def test_a_literal_power_over_the_digit_limit_is_refused_over_q(monkeypatch):
    # 2^2126 has 640 digits and 2^2127 has 641, so at a limit of 640 the
    # second is refused on both literal paths, at the literal's position
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
    x = VarTable(("x",))
    assert parse("2^2126*x + (1/2*x)^2126", x, Q).terms == {(1,): 2**2126,
                                                            (2126,): Fraction(1, 2**2126)}
    for text, position in [("x + 2^2127", 4), ("x + 3/2^2127*x", 4), ("x + (2*x)^2127", 4),
                           ("x + (-1/2)^2127", 4), ("x + 10^99999999999", 4)]:
        with pytest.raises(ParseError, match="at most 640 decimal digits") as err:
            parse(text, x, Q)
        assert err.value.position == position
    assert parse("2^2127", x, prime_field(5)) == SparsePoly.constant(1, prime_field(5),
                                                                     pow(2, 2127, 5))
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)   # no limit
    assert parse("2^2127", x, Q) == SparsePoly.constant(1, Q, 2**2127)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)   # a Python without one
    assert parse("2^2127", x, Q) == SparsePoly.constant(1, Q, 2**2127)


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
    # a term of numbers, variables and powers of them is one monomial, so
    # the sum is the one polynomial built
    assert built == [n]


@pytest.mark.parametrize("ring", [Q, prime_field(5)], ids=str)
def test_a_zero_denominator_is_a_parse_error(ring):
    for text, position in [("x + 1/0", 4), ("x + 2/0*y", 4), ("0/0", 0)]:
        with pytest.raises(ParseError) as err:
            parse(text, XYZ, ring)
        assert str(err.value) == (f"expected a literal with unit denominator in {ring} "
                                  f"(at position {position})")


def test_nesting_is_bounded_and_minus_chains_are_not():
    x = parse("x", XYZ, Q)
    assert parse("(" * 100 + "x" + ")" * 100, XYZ, Q) == x
    for depth in (101, 200, 5000):
        with pytest.raises(ParseError) as err:
            parse("(" * depth + "x" + ")" * depth, XYZ, Q)
        assert str(err.value) == "expected at most 100 nested parentheses (at position 100)"
    assert parse("0 + " + "-" * 1000 + "x", XYZ, Q) == x
    assert parse("-" * 5001 + "x^2*-y", XYZ, Q) == parse("x^2*y", XYZ, Q)
    with pytest.raises(ParseError) as err:
        parse("0 + " + "-" * 1000, XYZ, Q)
    assert err.value.position == 1004


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
