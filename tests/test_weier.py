import random
from fractions import Fraction

import pytest

from edgelift.coeffs import prime_field, rationals, residue_ring
from edgelift.expr import VarTable, parse, render
from edgelift.grading import orthogonal_basis
from edgelift.lift import (NOT_COPRIME, PRODUCT_MISMATCH, InvalidSplit, LiftError,
                           SplitRequest, _split_from_restriction, edge_restriction)
from edgelift.newton import build
from edgelift.poly import SparsePoly, WeightedBound
from edgelift.unifactor import pmul, trim
from edgelift.weier import (NoCoprimeSplit, NoLooseEdgeInfo, NotDescendant,
                            NotMonic, NotPrepared, PadicFactors, PadicPoly,
                            WeierstrassInput, descendant_loose_edges,
                            lift_monic, padic_newton_factor, poly_divide,
                            weierstrass_normalize, weight_to_x_bound)

Q = rationals()
X12Y = VarTable(("x1", "x2", "y"))
EXAMPLE3 = "y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18"


def example3():
    return WeierstrassInput(parse(EXAMPLE3, X12Y, Q))


def test_descendant_edges_example3():
    edges = descendant_loose_edges(example3())
    assert [(e.a, e.b) for e in edges] == [((5, 4, 2), (15, 18, 0))]


def test_descendant_edges_monomial_and_polygon():
    wi = WeierstrassInput(parse("y^4", VarTable(("x", "y")), Q))
    assert descendant_loose_edges(wi) == []
    # Example 4 polygon at p = 2 as a plane polynomial over F_2
    f2 = prime_field(2)
    f = parse("y^3 + p*y + p^2", VarTable(("p", "y")), f2)
    wi2 = WeierstrassInput(f)
    edges = descendant_loose_edges(wi2)
    assert {(e.a, e.b) for e in edges} == {((1, 1), (0, 3)), ((1, 1), (2, 0))}
    assert all(e.descendant for e in edges)


def test_lift_monic_example3():
    wi = example3()
    edge = descendant_loose_edges(wi)[0]
    rest = edge_restriction(wi.f, edge)
    split = _split_from_restriction(rest, monic_last=True)
    assert render(split.G, X12Y) == "y - x1^5*x2^7"
    ws = orthogonal_basis(edge.direction)
    bound = WeightedBound(ws.xi0, 60)
    gbar, hbar, cert = lift_monic(wi, edge, split, bound.bound)
    assert (wi.f - gbar * hbar).truncate(bound) == SparsePoly.zero(3, Q)
    # the lifted monic factor keeps the pure-y vertex
    assert gbar.coeff((0, 0, 1)) == 1


def test_lift_monic_unit_cofactor():
    # the whole restriction as the monic part and a constant H: the cofactor
    # comes back as a unit
    vt = VarTable(("x", "y"))
    f = parse("y^2 - x^2 + x^3", vt, Q)
    wi = WeierstrassInput(f)
    edges = descendant_loose_edges(wi)
    assert edges
    edge = edges[0]
    rest = edge_restriction(f, edge)
    split = SplitRequest(rest.poly, SparsePoly.constant(2, Q, 1))
    ws = orthogonal_basis(edge.direction)
    bound = WeightedBound(ws.xi0, 40)
    gbar, hbar, _ = lift_monic(wi, edge, split, bound.bound)
    assert (f - gbar * hbar).truncate(bound) == SparsePoly.zero(2, Q)
    assert hbar.coeff((0, 0)) == 1  # unit cofactor


def test_lift_monic_validation():
    wi = example3()
    edge = descendant_loose_edges(wi)[0]
    rest = edge_restriction(wi.f, edge)
    not_monic = SplitRequest(parse("x1^5*x2^4*y - x1^10*x2^11", X12Y, Q),
                             parse("y + x1^5*x2^7", X12Y, Q))
    with pytest.raises(NotMonic):
        lift_monic(wi, edge, not_monic, 30)
    np = build(wi.f)
    non_descendant = [e for e in np.edges if e.loose and not e.descendant]
    if non_descendant:
        with pytest.raises(NotDescendant):
            lift_monic(wi, non_descendant[0], not_monic, 30)


def test_lift_monic_rejects_invalid_splits():
    wi = example3()
    edge = descendant_loose_edges(wi)[0]
    rest = edge_restriction(wi.f, edge)
    good = _split_from_restriction(rest, monic_last=True)
    zero = SparsePoly.zero(3, Q)
    bad = [SplitRequest(zero, good.H), SplitRequest(good.G, zero),
           SplitRequest(good.G, good.H.scale(Fraction(2)))]
    for split in bad:
        with pytest.raises(InvalidSplit) as err:
            lift_monic(wi, edge, split, 30)
        assert err.value.reason == PRODUCT_MISMATCH

    vt = VarTable(("x", "y"))
    wi2 = WeierstrassInput(parse("y^2 - 2*x*y + x^2 + x^3", vt, Q))
    edge2 = descendant_loose_edges(wi2)[0]
    square_root = parse("y - x", vt, Q)
    assert edge_restriction(wi2.f, edge2).poly == square_root * square_root
    with pytest.raises(InvalidSplit) as err:
        lift_monic(wi2, edge2, SplitRequest(square_root, square_root), 8)
    assert err.value.reason == NOT_COPRIME


def test_weierstrass_normalize_identity_case():
    vt = VarTable(("x", "y"))
    g0 = parse("y^2 - x*y + x^3", vt, Q)  # already a Weierstrass polynomial
    u, g = weierstrass_normalize(g0, 2, 10)
    assert u == SparsePoly.constant(2, Q, 1)
    assert g == g0


def test_weierstrass_normalize_geometric_series():
    vt = VarTable(("x", "y"))
    gbar = parse("(1 + x)*y - x", vt, Q)
    n = 8
    u, g = weierstrass_normalize(gbar, 1, n)
    # oracle: g = y - x/(1+x) = y - x + x^2 - x^3 + ...
    series = {(k, 0): Fraction((-1) ** k) for k in range(1, n + 1)}
    series[(0, 1)] = Fraction(1)
    assert g == SparsePoly(2, Q, series)
    assert u == parse("1 + x", vt, Q)
    diff = u * g - gbar
    assert all(sum(e[:-1]) > n for e in diff.terms)


def test_weierstrass_normalize_rejects_unprepared():
    vt = VarTable(("x", "y"))
    with pytest.raises(NotPrepared):
        weierstrass_normalize(parse("x*y", vt, Q), 1, 5)
    with pytest.raises(NotPrepared):
        weierstrass_normalize(parse("y^2 + x", vt, Q), 1, 5)


def test_poly_divide_identity_and_random():
    vt = VarTable(("x", "y"))
    rng = random.Random(11)
    g = parse("y^2 + x*y + x^3", vt, Q)
    q, r = poly_divide(g, g, 12)
    assert q == SparsePoly.constant(2, Q, 1) and not r
    for _ in range(25):
        terms = {(rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-3, 3))
                 for _ in range(6)}
        f = SparsePoly(2, Q, terms)
        if not f:
            continue
        n = 10
        q, r = poly_divide(f, g, n)
        assert max((e[-1] for e in r.terms), default=-1) < 2
        diff = f - (q * g + r)
        assert all(sum(e[:-1]) > n for e in diff.terms)


# The Weierstrass tail as first written: every product formed in full and
# truncated afterwards.  Kept as the reference the truncated products must
# reproduce exactly.

def _reference_x_parts(f):
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(sum(e[:-1]), {})[e] = c
    return {m: SparsePoly(f.nvars, f.ring, terms) for m, terms in buckets.items()}


def _reference_y_split(P, d):
    low, high = {}, {}
    for e, c in P.terms.items():
        if e[-1] < d:
            low[e] = c
        else:
            high[e[:-1] + (e[-1] - d,)] = c
    return SparsePoly(P.nvars, P.ring, low), SparsePoly(P.nvars, P.ring, high)


def _reference_inverse_mod_y(v, d, nvars, ring):
    out = SparsePoly.constant(nvars, ring, ring.invert(v.coeff((0,) * nvars)))
    one = SparsePoly.constant(nvars, ring, ring.one())
    for _ in range(d):
        err = one - v * out
        if not err:
            break
        err = SparsePoly(nvars, ring, {e: c for e, c in err.terms.items() if e[-1] < d})
        out = SparsePoly(nvars, ring,
                         {e: c for e, c in (out + out * err).terms.items() if e[-1] < d})
    return out


def _reference_normalize(gbar, d, bound_x):
    ring, nvars = gbar.ring, gbar.nvars
    parts = _reference_x_parts(gbar)
    v = SparsePoly(nvars, ring, {e[:-1] + (e[-1] - d,): c for e, c in parts[0].terms.items()})
    v_inv = _reference_inverse_mod_y(v, d, nvars, ring)
    g_parts = {0: SparsePoly.monomial(nvars, ring, (0,) * (nvars - 1) + (d,))}
    u_parts = {0: v}
    for m in range(1, bound_x + 1):
        acc = parts.get(m, SparsePoly.zero(nvars, ring))
        for i in range(1, m):
            if i in u_parts and (m - i) in g_parts:
                acc = acc - u_parts[i] * g_parts[m - i]
        g_m = SparsePoly(nvars, ring,
                         {e: c for e, c in (v_inv * acc).terms.items() if e[-1] < d})
        u_m_low, u_m = _reference_y_split(acc - v * g_m, d)
        assert not u_m_low
        if g_m:
            g_parts[m] = g_m
        if u_m:
            u_parts[m] = u_m
    g = SparsePoly.zero(nvars, ring)
    for part in g_parts.values():
        g = g + part
    u = SparsePoly.zero(nvars, ring)
    for part in u_parts.values():
        u = u + part
    return u, g


def _reference_truncate_x(P, bound_x):
    return SparsePoly(P.nvars, P.ring,
                      {e: c for e, c in P.terms.items() if sum(e[:-1]) <= bound_x})


def _reference_divide(f, g, bound_x):
    ring, nvars = f.ring, f.nvars
    d = max(e[-1] for e in g.terms)
    q = SparsePoly.zero(nvars, ring)
    r = _reference_truncate_x(f, bound_x)
    g = _reference_truncate_x(g, bound_x)
    while r:
        dy = max(e[-1] for e in r.terms)
        if dy < d:
            break
        lead = SparsePoly(nvars, ring, {e[:-1] + (e[-1] - d,): c for e, c in r.terms.items()
                                        if e[-1] == dy})
        q = q + lead
        r = _reference_truncate_x(r - lead * g, bound_x)
    return q, r


def _random_tail_poly(rng, ring, nx, y_range, count):
    """``count`` random terms with x-exponents 0-3 and y-degree in y_range."""
    terms = {}
    for _ in range(count):
        e = tuple(rng.randint(0, 3) for _ in range(nx)) + (rng.randint(*y_range),)
        terms[e] = ring.from_fraction(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))))
    return terms


def test_weierstrass_tail_matches_untruncated_reference():
    rng = random.Random(20261019)
    rings = (Q, prime_field(101), residue_ring(5, 4))
    checked = 0
    for trial in range(240):
        ring = rings[trial % 3]
        nx = rng.randint(1, 3)
        nvars = nx + 1
        d = rng.randint(1, 4)
        top = d + rng.randint(0, 3)
        bound_x = rng.randint(0, 8)
        # gbar: monic of y-degree top, its x-free part y^d times a unit at y = 0
        terms = {e: c for e, c in _random_tail_poly(rng, ring, nx, (0, top - 1), 8).items()
                 if any(e[:-1])}
        for j in range(d + 1, top):
            terms[(0,) * nx + (j,)] = ring.from_int(rng.randint(-4, 4))
        terms[(0,) * nx + (d,)] = ring.from_int(rng.choice((1, 2, 3, 4)))
        terms[(0,) * nx + (top,)] = ring.one()
        gbar = SparsePoly(nvars, ring, terms)
        u, g = weierstrass_normalize(gbar, d, bound_x)
        assert (u, g) == _reference_normalize(gbar, d, bound_x)
        # f: anything; divisor: g, or a random polynomial monic in y
        f = SparsePoly(nvars, ring, _random_tail_poly(rng, ring, nx, (0, top + 3), 10))
        divisor = g if trial % 2 else SparsePoly(nvars, ring, {
            **_random_tail_poly(rng, ring, nx, (0, d - 1), 5), (0,) * nx + (d,): ring.one()})
        if f:
            assert poly_divide(f, divisor, bound_x) == _reference_divide(f, divisor, bound_x)
            checked += 1
    assert checked > 200


def test_full_monic_pipeline_example3():
    wi = example3()
    edge = descendant_loose_edges(wi)[0]
    rest = edge_restriction(wi.f, edge)
    split = _split_from_restriction(rest, monic_last=True)
    ws = orthogonal_basis(edge.direction)
    bound = WeightedBound(ws.xi0, 60)
    gbar, hbar, _ = lift_monic(wi, edge, split, bound.bound)
    bx = weight_to_x_bound(ws, 60)
    u, g = weierstrass_normalize(gbar, 1, bx)
    # monic degree 1, unit constant term invertible, u*g matches gbar
    assert max(e[-1] for e in g.terms) == 1
    assert g.coeff((0, 0, 1)) == 1
    assert u.coeff((0, 0, 0)) != 0
    sub = [e for e in g.terms if e[-1] == 0]
    assert all(any(e[:-1]) for e in sub)  # lower coefficients vanish at x = 0
    diff = u * g - gbar
    assert all(sum(e[:-1]) > bx for e in diff.terms)
    h, r = poly_divide(wi.f, g, bx)
    resid = (wi.f - g * h).truncate(bound)
    assert not resid
    assert not r.truncate(bound)


def test_monic_pipeline_bound_stability():
    wi = example3()
    edge = descendant_loose_edges(wi)[0]
    rest = edge_restriction(wi.f, edge)
    split = _split_from_restriction(rest, monic_last=True)
    ws = orthogonal_basis(edge.direction)
    g1, h1, _ = lift_monic(wi, edge, split, 30)
    g2, h2, _ = lift_monic(wi, edge, split, 60)
    w = sum(ws.weight(next(iter(split.G.terms))))
    z = sum(ws.weight(next(iter(split.H.terms))))
    assert g1.truncate(WeightedBound(ws.xi0, 30 - z)) == g2.truncate(WeightedBound(ws.xi0, 30 - z))
    assert h1.truncate(WeightedBound(ws.xi0, 30 - w)) == h2.truncate(WeightedBound(ws.xi0, 30 - w))
    # and the monic factor is monic at both bounds
    assert g1.coeff((0, 0, 1)) == 1 and g2.coeff((0, 0, 1)) == 1


# -- p-adic ----------------------------------------------------------------------

F4 = (540, 270, 0, 1)  # y^3 + 270 y + 540


def test_padic_poly_validation():
    with pytest.raises(ValueError):
        PadicPoly((1, 1), 4, 8)     # 4 not prime
    with pytest.raises(ValueError):
        PadicPoly((1, 1), 2, 1)     # k >= 2
    pp = PadicPoly(F4, 2, 32)
    assert pp.valuations() == [(2, 0), (1, 1), (0, 3)]


def test_padic_example_p2():
    pp = PadicPoly(F4, 2, 32)
    verdict = padic_newton_factor(pp)
    assert isinstance(verdict, PadicFactors)
    assert set(verdict.polygon.vertices) == {(0, 3), (1, 1), (2, 0)}
    g, h = verdict.factors
    ring = residue_ring(2, 32)
    assert pmul(list(g), list(h), ring) == [c % 2**32 for c in F4]
    degs = sorted(len(c) - 1 for c in (g, h))
    assert degs == [1, 2]
    # the quadratic factor is monic
    quad = g if len(g) == 3 else h
    assert quad[-1] == 1


def test_padic_example_p3():
    pp = PadicPoly(F4, 3, 8)
    verdict = padic_newton_factor(pp)
    assert isinstance(verdict, NoCoprimeSplit)
    assert set(verdict.polygon.vertices) == {(0, 3), (3, 0)}
    assert verdict.power == 3
    assert render(verdict.factor, VarTable(("p", "y"))) == "y + 2*p"


def test_padic_example_p5():
    pp = PadicPoly(F4, 5, 8)
    verdict = padic_newton_factor(pp)
    assert isinstance(verdict, NoCoprimeSplit)
    assert len(verdict.polygon.edges) == 1
    assert verdict.power == 1


def test_padic_single_vertex():
    pp = PadicPoly((0, 0, 1), 3, 4)  # y^2
    verdict = padic_newton_factor(pp)
    assert isinstance(verdict, NoLooseEdgeInfo)


def test_padic_requires_unit_leading_coefficient():
    with pytest.raises(ValueError):
        padic_newton_factor(PadicPoly((1, 0, 2), 2, 6))


def test_plane_valuations_match_naive_loop():
    """The plane model's blockwise v_p agrees with stripping one factor of p
    at a time, from units up to c = p^(k-1)."""
    from edgelift.weier import _plane

    rng = random.Random(1024)
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3, 7, 8, 9, 64, 100, 1023, 1024):
            ring = residue_ring(p, k)
            coeffs = [1, p - 1, p ** (k - 1), rng.randrange(1, p) * p ** (k - 1)]
            coeffs += [rng.randrange(1, p ** (k - v)) * p ** v
                       for v in (rng.randrange(k) for _ in range(12))]
            coeffs = [c % ring.modulus for c in coeffs if c % ring.modulus]
            P = SparsePoly(1, ring, {(j,): c for j, c in enumerate(coeffs)})
            expected = {}
            for (j,), c in P.terms.items():
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                expected[(v, j)] = c % p
            assert _plane(P) == SparsePoly(2, prime_field(p), expected)


def test_padic_random_products():
    # products of a monic polynomial with unit constant term and a factor
    # with all-divisible lower coefficients lift back to a true factorization
    rng = random.Random(31337)
    factored = 0
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        k = rng.randint(4, 10)
        mod = p**k
        ring = residue_ring(p, k)
        d1 = rng.randint(1, 2)
        g = [rng.randrange(1, mod) * p % mod for _ in range(d1)] + [1]
        if g[0] % p == 0:
            g[0] = (g[0] + p) % mod or p
        d2 = rng.randint(1, 2)
        h = [rng.randrange(mod) for _ in range(d2)] + [1]
        if h[0] % p == 0:
            h[0] = (h[0] + 1) % mod
        f = pmul(g, h, ring)
        pp = PadicPoly(tuple(f), p, k)
        verdict = padic_newton_factor(pp)
        if isinstance(verdict, PadicFactors):
            factored += 1
            a, b = verdict.factors
            assert pmul(list(a), list(b), ring) == trim(f, ring)
            # what the shared lifting loop must keep for padic certificates
            cert = verdict.certificate
            steps = cert.steps
            assert steps
            for before, after in zip(steps, steps[1:]):
                assert before.residual_after == after.residual_before
                assert before.weight < after.weight
            assert steps[-1].residual_after is None
            assert cert.exit_min_weight is None
            xi0 = orthogonal_basis(verdict.edge.direction).xi0
            assert cert.bound == (k - 1) * xi0[0] + (len(trim(f, ring)) - 1) * xi0[1]
    assert factored >= 10


def test_padic_steps_solve_within_exact_caps():
    # every lift step is consistent with its columns capped at the y-degrees
    # of the factors, deg f - deg G for h' and deg G for g'
    rng = random.Random(2718)
    factored = 0
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(2, 40)
        mod = p**k
        units = [u + (u % p == 0) for u in (rng.randrange(1, mod) for _ in range(10))]
        vals = (0, 0, 1, 1, 2, 3, 4, 6, 9, k)
        coeffs = [u * p ** rng.choice(vals) for u in units[:rng.randint(2, 9)]]
        pp = PadicPoly(tuple(coeffs) + (units[-1],), p, k)
        try:
            verdict = padic_newton_factor(pp)
        except LiftError as err:
            pytest.fail(f"{pp}: {err}")
        if isinstance(verdict, PadicFactors):
            factored += 1
            a, b = verdict.factors
            assert pmul(list(a), list(b), pp.ring) == trim(list(pp.coefficients), pp.ring)
    assert factored >= 50


def test_padic_monic_weierstrass_sanity():
    # for monic inputs whose lower coefficients are divisible by p, a loose
    # edge ending at (0, d) exists iff the verdict is not NoLooseEdgeInfo
    rng = random.Random(909)
    for _ in range(40):
        p = rng.choice((2, 3))
        k = 6
        d = rng.randint(1, 3)
        coeffs = [rng.randrange(p**k) * p % p**k for _ in range(d)] + [1]
        pp = PadicPoly(tuple(coeffs), p, k)
        verdict = padic_newton_factor(pp)
        touching = [e for e in verdict.polygon.edges
                    if (0, d) in (e.a, e.b) and e.loose]
        assert bool(touching) == (not isinstance(verdict, NoLooseEdgeInfo))


def test_padic_lift_with_linear_monic_part():
    # the alternate monic split of y^3 + p*y at p = 2: G the linear y factor,
    # H the quadratic part
    from edgelift.grading import orthogonal_basis as ob
    from edgelift.lift import EdgeRestriction, _line_form
    from edgelift.newton import build_from_support
    from edgelift.weier import _padic_lift

    p, k = 2, 16
    pp = PadicPoly(F4, p, k)
    polygon = build_from_support(pp.valuations(), 2)
    edge = polygon.edge_between((0, 3), (1, 1))
    fp = prime_field(2)
    restriction = SparsePoly(2, fp, {(0, 3): 1, (1, 1): 1})  # Y^3 + P Y
    ws = ob(edge.direction)
    content, uni = _line_form(restriction, edge.direction)
    rest = EdgeRestriction(restriction, edge, ws, content, tuple(uni))
    G = SparsePoly(2, fp, {(0, 1): 1})                # Y
    H = SparsePoly(2, fp, {(0, 2): 1, (1, 0): 1})     # Y^2 + P
    g, h, _ = _padic_lift(pp, rest, SplitRequest(G, H))
    ring = residue_ring(p, k)
    assert pmul(list(g), list(h), ring) == [c % p**k for c in F4]
    assert len(g) == 2 and g[-1] == 1  # monic linear factor
