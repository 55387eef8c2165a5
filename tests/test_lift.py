import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from edgelift.coeffs import RESIDUE_RING, prime_field, rationals, residue_ring
from edgelift.expr import VarTable, parse, render
from edgelift.grading import orthogonal_basis
from edgelift.lift import (DIVISIBLE_BY_VARIABLE, EdgePrimePower,
                           EmptyFace, InvalidSplit, NoLooseEdge, NotLoose,
                           ReducibleWithFactors, SplitRequest,
                           _split_from_restriction, coprime_check,
                           edge_poly_from_univariate, edge_restriction,
                           Unsolvable, lift_factorization, reducibility_witness,
                           restrict, solve_cofactor)
from edgelift.newton import Edge, build
from edgelift.poly import SparsePoly, WeightedBound, exp_add, exp_dot, exp_scale, exp_sub
from edgelift.unifactor import factor_univariate
from oracles import dense_solve_field

Q = rationals()
X123 = VarTable(("x1", "x2", "x3"))
XYZ = VarTable(("x", "y", "z"))

DIVISIBILITY_F = "x3^3 + x1*x2*x3^2 + x1*x2*x3 + x1^2*x2^2"
EXAMPLE1 = "x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2"
EXAMPLE2 = "x*y*z + x^3*y^3 + x^3*z^3 + y^3*z^3"
EXAMPLE3 = "y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18"


def the_edge(f, a, b):
    return build(f).edge_between(a, b)


def segment_points(e):
    """The integer points of the edge e, from e.a to e.b in direction steps."""
    steps = next((y - x) // d for x, y, d in zip(e.a, e.b, e.direction) if d)
    return [exp_add(e.a, exp_scale(e.direction, t)) for t in range(steps + 1)]


def test_restrict_divisibility_fixture_edge():
    f = parse(DIVISIBILITY_F, X123, Q)
    e = the_edge(f, (1, 1, 1), (2, 2, 0))
    r = restrict(f, segment_points(e))
    assert r == parse("x1*x2*x3 + x1^2*x2^2", X123, Q)


def test_restrict_vertex_and_empty():
    f = parse(DIVISIBILITY_F, X123, Q)
    assert restrict(f, [(0, 0, 3)]) == parse("x3^3", X123, Q)
    with pytest.raises(EmptyFace):
        restrict(f, [])


def test_restrict_example3_edge():
    f = parse(EXAMPLE3, VarTable(("x1", "x2", "y")), Q)
    e = the_edge(f, (5, 4, 2), (15, 18, 0))
    r = restrict(f, segment_points(e))
    assert r == parse("x1^5*x2^4*y^2 - x1^15*x2^18", VarTable(("x1", "x2", "y")), Q)


def test_edge_univariate_reconstruction():
    f = parse("x1*x2*x3 + x1^2*x2^2", X123, Q)
    full = parse(DIVISIBILITY_F, X123, Q)
    e = the_edge(full, (1, 1, 1), (2, 2, 0))
    rest = edge_restriction(full, e)
    content, uni = rest.content, list(rest.univariate)
    assert content == (1, 1, 1)
    assert uni == [Fraction(1), Fraction(1)]  # 1 + t
    rebuilt = edge_poly_from_univariate(Q, 3, e.direction, uni, anchor=content)
    assert rebuilt == f
    assert uni[0] != 0


def test_edge_univariate_single_monomial_restriction():
    f = parse("x1^2*x2 + x1^5", X123, Q)
    rest = edge_restriction(f, build(f).edges[0])
    # both endpoints present: degree equals the lattice length
    assert len(rest.univariate) - 1 == len(segment_points(rest.edge)) - 1


def test_edge_univariate_example1():
    f = parse(EXAMPLE1, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    assert rest.content == (0, 0, 4)
    assert list(rest.univariate) == [Fraction(-1), Fraction(0), Fraction(1)]
    rebuilt = edge_poly_from_univariate(Q, 3, rest.edge.direction,
                                        rest.univariate, anchor=rest.content)
    assert rebuilt == rest.poly
    # leading coefficient sits at the far end of the edge
    assert rest.univariate[-1] == rest.poly.terms[(6, 2, 0)]


def test_coprime_check_cases():
    G = parse("x3 + x1*x2", X123, Q)
    H = parse("x1*x2", X123, Q)
    assert coprime_check(G, H)
    G2 = parse("x2*x3 + x1*x2^2", X123, Q)     # x2*(x3 + x1*x2)
    H2 = parse("x1", X123, Q)
    assert coprime_check(G2, H2)               # coprime as polynomials
    P = parse("y + x", VarTable(("x", "y")), Q)
    assert not coprime_check(P, P * P)         # shared factor
    assert not coprime_check(parse("x1*x3", X123, Q), parse("x1*x2", X123, Q))


def test_factor_edge_univariate_dispatch():
    unit, factors = factor_univariate(Q, [Fraction(-1), Fraction(0), Fraction(1)])
    assert [c for c, _ in factors] == [[Fraction(-1), Fraction(1)],
                                       [Fraction(1), Fraction(1)]]
    f2 = prime_field(2)
    unit, factors = factor_univariate(f2, [1, 0, 1])
    assert factors == [([1, 1], 2)]


def test_solve_cofactor_zero_rhs():
    ws = orthogonal_basis((1, 1, -1))
    G = parse("x3 + x1*x2", X123, Q)
    H = parse("x1*x2", X123, Q)
    zero = SparsePoly.zero(3, Q)
    hp, gp = solve_cofactor(G, H, zero, ws)
    assert not hp and not gp


def test_solve_cofactor_frozen_instance():
    # frozen from a hand elimination with the deterministic pivot order
    ws = orthogonal_basis((1, 1, -1))
    G = parse("x3 + x1*x2", X123, Q)
    H = parse("x1*x2", X123, Q)
    r = parse("x3^3", X123, Q)
    hp, gp = solve_cofactor(G, H, r, ws)
    assert G * hp + H * gp == r
    assert hp == parse("x3^2", X123, Q)
    assert gp == parse("-x3^2", X123, Q)


def test_solve_cofactor_unreachable_residual_term():
    # Every term of G and H is divisible by x, so no column reaches y^3:
    # its row is zero with a nonzero right-hand side.
    vt = VarTable(("x", "y"))
    ws = orthogonal_basis((1, -1))
    G = parse("x", vt, Q)
    H = parse("x^2 + x*y", vt, Q)
    hp, gp = solve_cofactor(G, H, parse("x^3", vt, Q), ws)
    assert G * hp + H * gp == parse("x^3", vt, Q)
    with pytest.raises(Unsolvable):
        solve_cofactor(G, H, parse("x^3 + y^3", vt, Q), ws)


def random_direction(rng, n):
    while True:
        c = tuple(rng.randint(-4, 4) for _ in range(n))
        if any(x > 0 for x in c) and any(x < 0 for x in c):
            g = 0
            for x in c:
                g = gcd(g, abs(x))
            return tuple(x // g for x in c)


def random_coprime_split(rng, ws, ring, g_content=False):
    """Edge-homogeneous coprime (G, H); G is free of variable factors unless
    ``g_content`` gives it a random monomial content too."""
    from edgelift.unifactor import pgcd, degree

    n = ws.nvars
    while True:
        du, dv = rng.randint(1, 3), rng.randint(0, 2)
        u = [ring.normalize(rng.randint(-5, 5)) for _ in range(du)] + [ring.normalize(rng.randint(1, 5))]
        v = [ring.normalize(rng.randint(-5, 5)) for _ in range(dv)] + [ring.normalize(rng.randint(1, 5))]
        if not u[0] or not v[0]:
            continue
        if degree(pgcd(u, v, ring)) != 0:
            continue
        G = edge_poly_from_univariate(ring, n, ws.direction, u)
        if g_content:
            G = G.mul_monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        m = tuple(rng.randint(0, 2) for _ in range(n))
        H = edge_poly_from_univariate(ring, n, ws.direction, v).mul_monomial(m)
        if G and H and coprime_check(G, H):
            return G, H


def test_solve_cofactor_randomized_identity():
    rng = random.Random(424242)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        ws = orthogonal_basis(random_direction(rng, n))
        ring = Q if rng.random() < 0.6 else prime_field(5)
        G, H = random_coprime_split(rng, ws, ring)
        w = ws.weight(next(iter(G.terms)))
        z = ws.weight(next(iter(H.terms)))
        i = ws.weight(tuple(rng.randint(0, 3) for _ in range(n)))
        target = exp_add(exp_add(w, z), i)
        sl = ws.slice(target)
        if sl.dim == 0:
            continue
        r = SparsePoly(n, ring, {p: ring.normalize(rng.randint(-5, 5)) for p in sl.points})
        if not r:
            continue
        hp, gp = solve_cofactor(G, H, r, ws)
        assert G * hp + H * gp == r
        done += 1


def reference_cofactor(G, H, r, ws, caps):
    """solve_cofactor's answer from the explicit cofactor matrix, or None
    when it is inconsistent.  The columns are the capped h'- and g'-slices,
    each in slice order; the rows are the points those columns reach plus
    r's terms.  Also returns whether some g'-column reaches a row beyond
    either end of the h'-block's rows along the edge direction."""
    ring, n = r.ring, r.nvars
    wr = ws.weight(next(iter(r.terms)))
    h_pts = ws.slice(exp_sub(wr, ws.weight(next(iter(G.terms)))), max_last=caps[0]).points
    g_pts = ws.slice(exp_sub(wr, ws.weight(next(iter(H.terms)))), max_last=caps[1]).points
    columns = [(G, p) for p in h_pts] + [(H, p) for p in g_pts]
    rows = sorted({exp_add(e, p) for F, p in columns for e in F.terms} | set(r.terms))
    matrix = [[F.coeff(exp_sub(row, p)) for F, p in columns] for row in rows]
    solution = dense_solve_field(ring, matrix, [r.coeff(row) for row in rows])

    def positions(F, pts):
        return [exp_dot(exp_add(e, p), ws.direction) for p in pts for e in F.terms]

    h_rows, g_rows = positions(G, h_pts), positions(H, g_pts)
    overhang = bool(h_rows) and any(t < min(h_rows) or t > max(h_rows) for t in g_rows)
    if solution is None:
        return None, overhang
    h_part = SparsePoly(n, ring, zip(h_pts, solution[:len(h_pts)]))
    g_part = SparsePoly(n, ring, zip(g_pts, solution[len(h_pts):]))
    return (h_part, g_part), overhang


def test_solve_cofactor_matches_matrix_reference():
    """solve_cofactor returns the matrix solution with free variables zero,
    and raises Unsolvable exactly when the matrix system is inconsistent,
    for G with content, residuals on part of a slice and capped columns."""
    rng = random.Random(20261018)
    outcomes = {"solved": 0, "unsolvable": 0, "solved_overhang": 0}
    done = 0
    while done < 300:
        n = rng.randint(2, 4)
        ws = orthogonal_basis(random_direction(rng, n))
        ring = Q if rng.random() < 0.5 else prime_field(7)
        G, H = random_coprime_split(rng, ws, ring, g_content=True)
        w = ws.weight(next(iter(G.terms)))
        z = ws.weight(next(iter(H.terms)))
        i = ws.weight(tuple(rng.randint(0, 4) for _ in range(n)))
        points = ws.slice(exp_add(exp_add(w, z), i)).points
        if not points:
            continue
        start = rng.randrange(len(points))
        segment = points[start:start + rng.randint(1, 4)]
        r = SparsePoly(n, ring, {p: ring.normalize(rng.randint(-5, 5)) for p in segment})
        if not r:
            continue
        caps = tuple(rng.choice((None, 0, 1, 2, 3, 4, 5, 6)) for _ in range(2))
        expected, overhang = reference_cofactor(G, H, r, ws, caps)
        if expected is None:
            outcomes["unsolvable"] += 1
            with pytest.raises(Unsolvable):
                solve_cofactor(G, H, r, ws, caps)
        else:
            outcomes["solved"] += 1
            outcomes["solved_overhang"] += overhang
            hp, gp = solve_cofactor(G, H, r, ws, caps)
            assert (hp, gp) == expected
            assert G * hp + H * gp == r
        done += 1
    # both verdicts occur, and solved systems often have g'-columns that
    # reach past the h'-block
    assert outcomes["solved"] >= 50 and outcomes["unsolvable"] >= 50
    assert outcomes["solved_overhang"] >= 30


@pytest.mark.parametrize("ring", [Q, prime_field(7), residue_ring(2, 6).residue_field(),
                                  residue_ring(5, 3).residue_field()],
                         ids=["Q", "F7", "Z2^6", "Z5^3"])
def test_the_step_solve_matches_the_dense_reference(ring, monkeypatch):
    """The lift loop's step solve, one _step_solver kept across the solves
    of a split as _run_lift keeps it, returns the dense reference's solution
    of the explicit cofactor matrix and raises Unsolvable exactly where the
    reference finds it inconsistent, over Q, F_p and the residue fields of Z/p^k (F_2
    and F_5), on right-hand sides of several terms and with capped columns;
    it eliminates fewer columns than the systems it solves hold."""
    import edgelift.lift as lift

    eliminated = []
    extend = lift._extend_elimination

    def counting_extend(field, elimination, columns, m):
        eliminated.append(len(columns))
        return extend(field, elimination, columns, m)

    monkeypatch.setattr(lift, "_extend_elimination", counting_extend)
    rng = random.Random(f"step-solve-{ring}")
    outcomes, reused = Counter(), 0
    while min(outcomes[True], outcomes[False]) < 40:
        n = rng.randint(2, 4)
        ws = orthogonal_basis(random_direction(rng, n))
        G, H = random_coprime_split(rng, ws, ring, g_content=True)
        w = ws.weight(next(iter(G.terms)))
        z = ws.weight(next(iter(H.terms)))
        caps = tuple(rng.choice((None, 1, 2, 3, 4, 6)) for _ in range(2))
        solve, solved = lift._step_solver(G, H, w, ws, caps), 0
        eliminated.clear()
        for _ in range(8):
            i = ws.weight(tuple(rng.randint(0, 4) for _ in range(n)))
            wr = exp_add(exp_add(w, z), i)
            points = ws.slice(wr).points
            start = rng.randrange(len(points)) if points else 0
            r = SparsePoly(n, ring, {p: ring.normalize(rng.randint(-5, 5))
                                     for p in points[start:start + rng.randint(2, 5)]})
            if len(r) < 2:
                continue
            expected, _ = reference_cofactor(G, H, r, ws, caps)
            args = r.terms.items(), next(iter(r.terms)), exp_sub(wr, w)
            if expected is None:
                with pytest.raises(Unsolvable):
                    solve(*args)
            else:
                h_part, g_part, dims = solve(*args)
                assert (SparsePoly(n, ring, h_part), SparsePoly(n, ring, g_part)) == expected
                solved += sum(dims)
            outcomes[expected is None] += 1
        reused += solved - sum(eliminated)
    assert reused >= 20


def test_cofactor_composition_property():
    # solvability for (G, H1) and (G, H2) extends to (G, H1*H2)
    rng = random.Random(321)
    done = 0
    while done < 100:
        n = rng.randint(2, 3)
        ws = orthogonal_basis(random_direction(rng, n))
        G, H1 = random_coprime_split(rng, ws, Q)
        _, H2 = random_coprime_split(rng, ws, Q)
        if not coprime_check(G, H2) or not coprime_check(G, H1 * H2):
            continue
        product = H1 * H2
        w = ws.weight(next(iter(G.terms)))
        z = ws.weight(next(iter(product.terms)))
        i = ws.weight(tuple(rng.randint(0, 2) for _ in range(n)))
        target = exp_add(exp_add(w, z), i)
        sl = ws.slice(target)
        if sl.dim == 0:
            continue
        r = SparsePoly(n, Q, {p: Fraction(rng.randint(-4, 4)) for p in sl.points})
        if not r:
            continue
        hp, gp = solve_cofactor(G, product, r, ws)
        assert G * hp + product * gp == r
        done += 1


def divisibility_poly():
    return parse(DIVISIBILITY_F, X123, Q)


def test_lift_divisibility_fixture_exact():
    f = divisibility_poly()
    e = the_edge(f, (1, 1, 1), (2, 2, 0))
    split = SplitRequest(parse("x3 + x1*x2", X123, Q), parse("x1*x2", X123, Q))
    g, h, cert = lift_factorization(f, edge_restriction(f, e), split, 30)
    assert g == parse("x3 + x1*x2", X123, Q)
    assert h == parse("x3^2 + x1*x2", X123, Q)
    assert not (f - g * h)
    assert cert.exit_min_weight is None


def test_lift_rejects_variable_divisible_G():
    f = divisibility_poly()
    e = the_edge(f, (1, 1, 1), (2, 2, 0))
    split = SplitRequest(parse("x2*(x3 + x1*x2)", X123, Q), parse("x1", X123, Q))
    with pytest.raises(InvalidSplit) as err:
        lift_factorization(f, edge_restriction(f, e), split, 30)
    assert err.value.reason == DIVISIBLE_BY_VARIABLE


def test_lift_rejects_bad_product():
    f = divisibility_poly()
    rest = edge_restriction(f, the_edge(f, (1, 1, 1), (2, 2, 0)))
    with pytest.raises(InvalidSplit) as err:
        lift_factorization(f, rest, SplitRequest(parse("x3", X123, Q),
                                                 parse("x1*x2", X123, Q)), 30)
    assert err.value.reason == "ProductMismatch"


def test_lift_rejects_non_coprime_split():
    vt = VarTable(("x", "y"))
    f = parse("x^2 + 2*x*y + y^2 + x^3", vt, Q)
    e = the_edge(f, (0, 2), (2, 0))
    split = SplitRequest(parse("x + y", vt, Q), parse("x + y", vt, Q))
    with pytest.raises(InvalidSplit) as err:
        lift_factorization(f, edge_restriction(f, e), split, 12)
    assert err.value.reason == "NotCoprime"


def test_lift_requires_loose_edge():
    f = parse("x + y + z", XYZ, Q)
    e = build(f).edges[0]
    assert not e.loose
    K = Q
    split = SplitRequest(SparsePoly.constant(3, K, 1), SparsePoly.constant(3, K, 1))
    with pytest.raises(NotLoose):
        lift_factorization(f, edge_restriction(f, e), split, 30)


def test_lift_example1_to_bound():
    f = parse(EXAMPLE1, XYZ, Q)
    e = build(f).edges[0]
    ws = orthogonal_basis(e.direction)
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))
    bound = WeightedBound(ws.xi0, 40)
    g, h, cert = lift_factorization(f, edge_restriction(f, e), split, bound.bound)
    resid = (f - g * h).truncate(bound)
    assert not resid
    # initial parts are preserved
    assert restrict(g, [(3, 1, 0), (0, 0, 2)]) == split.G
    assert restrict(h, [(3, 1, 0), (0, 0, 2)]) == split.H


def test_lift_faces_and_minkowski_sum():
    from edgelift.newton import face_of, minkowski, build_from_support

    f = parse(EXAMPLE2, XYZ, Q)
    e = the_edge(f, (1, 1, 1), (3, 3, 0))
    ws = orthogonal_basis(e.direction)
    rest = edge_restriction(f, e)
    split = SplitRequest(parse("z + x^2*y^2", XYZ, Q), parse("x*y", XYZ, Q))
    g, h, cert = lift_factorization(f, rest, split, 30)
    e1 = face_of(build(g), ws.xi0)[0]
    e2 = face_of(build(h), ws.xi0)[0]
    assert restrict(g, e1) == split.G
    assert restrict(h, e2) == split.H
    total = minkowski(build_from_support(e1, 3), build_from_support(e2, 3))
    assert set(total.vertices) == {e.a, e.b}


def test_lift_prefix_stability():
    """Over Q, F_7 and Z/5^4 (where the split is lifted from F_5), a lift at
    a smaller bound is a prefix of one at a larger bound, and each clears
    its truncated residual (mod 5 over Z/5^4)."""
    for ring in (Q, prime_field(7), residue_ring(5, 4)):
        K = ring.residue_field()
        f = parse(EXAMPLE1, XYZ, ring)
        e = build(f).edges[0]
        ws = orthogonal_basis(e.direction)
        split = SplitRequest(parse("x^3*y - z^2", XYZ, K), parse("x^3*y + z^2", XYZ, K))
        lifts = {}
        for N in (24, 40):
            bound = WeightedBound(ws.xi0, N)
            g, h, _ = lift_factorization(f, edge_restriction(f, e), split, N)
            residual = (f - g * h).truncate(bound)
            assert not residual.map_coefficients(K, ring.to_residue)
            lifts[N] = g, h
        (g1, h1), (g2, h2) = lifts[24], lifts[40]
        z = sum(ws.weight(next(iter(split.H.terms))))
        w = sum(ws.weight(next(iter(split.G.terms))))
        cut_g = WeightedBound(ws.xi0, 24 - z)
        cut_h = WeightedBound(ws.xi0, 24 - w)
        assert g1.truncate(cut_g) == g2.truncate(cut_g)
        assert h1.truncate(cut_h) == h2.truncate(cut_h)


def test_support_weights_lie_in_monoid():
    for name, text, vt in [("ex1", EXAMPLE1, XYZ), ("ex2", EXAMPLE2, XYZ)]:
        f = parse(text, vt, Q)
        for e in build(f).edges:
            if not e.loose:
                continue
            ws = orthogonal_basis(e.direction)
            rest = edge_restriction(f, e)
            w0 = ws.weight(next(iter(rest.poly.terms)))
            for alpha in f.terms:
                diff = tuple(a - b for a, b in zip(ws.weight(alpha), w0))
                assert ws.in_monoid(diff)


def test_edge_prime_power_examples():
    f = parse(EXAMPLE1, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    assert isinstance(_split_from_restriction(rest), SplitRequest)  # two factors

    g = parse("x + y", VarTable(("x", "y")), Q)
    rest_g = edge_restriction(g, build(g).edges[0])
    pp = _split_from_restriction(rest_g)
    assert isinstance(pp, EdgePrimePower)
    assert pp.edge == rest_g.edge
    assert pp.power == 1 and len(pp.factor) == 2
    assert pp.factor.scale(pp.unit) == rest_g.poly


def test_edge_prime_power_cube_over_f3():
    f3 = prime_field(3)
    vt = VarTable(("p", "y"))
    f = parse("y^3 + 2*p^3", vt, f3)
    rest = edge_restriction(f, build(f).edges[0])
    pp = _split_from_restriction(rest)
    assert isinstance(pp, EdgePrimePower)
    assert pp.power == 3
    assert render(pp.factor, vt) == "y + 2*p"
    assert pp.unit == 1


def test_reducibility_witness_example2():
    f = parse(EXAMPLE2, XYZ, Q)
    first_loose = [e for e in build(f).edges if e.loose][0]
    ws = orthogonal_basis(first_loose.direction)
    bound = WeightedBound(ws.xi0, 30)
    verdict = reducibility_witness(f, bound.bound)
    assert isinstance(verdict, ReducibleWithFactors)
    assert (f - verdict.g * verdict.h).truncate(bound) == SparsePoly.zero(3, Q)


def test_reducibility_witness_truncates_in_the_lifted_edge_weights(monkeypatch):
    """Forced onto the last of EXAMPLE2's loose edges, the witness clears the
    residual up to N in that edge's xi0, not in the first loose edge's."""
    import edgelift.lift as lift

    f = parse(EXAMPLE2, XYZ, Q)
    loose = [e for e in build(f).edges if e.loose]
    first_split = lift._first_split
    monkeypatch.setattr(lift, "_first_split",
                        lambda poly, edges, *args, **kwargs:
                        first_split(poly, edges[-1:], *args, **kwargs))
    verdict = reducibility_witness(f, 30)
    assert isinstance(verdict, ReducibleWithFactors)
    assert verdict.edge == loose[-1]
    xi0 = orthogonal_basis(verdict.edge.direction).xi0
    assert (f - verdict.g * verdict.h).min_weighted_degree(xi0) > 30
    assert verdict.certificate.bound == 30


@pytest.mark.parametrize("N", [None, 2.5, "7", -1])
def test_every_lift_refuses_a_bound_that_is_not_a_nonnegative_int(N, monkeypatch):
    """Untruncated, a lift over a field need not end: each public lift
    raises ValueError on such a bound before its loop starts."""
    import edgelift.lift as lift
    from edgelift.weier import WeierstrassInput, descendant_loose_edges, lift_monic

    def no_loop(*args, **kwargs):
        raise AssertionError("the lift loop ran")

    monkeypatch.setattr(lift, "_run_lift", no_loop)
    f = parse(EXAMPLE1, XYZ, Q)
    rest, split = lift._first_split(f, [e for e in build(f).edges if e.loose])
    wi = WeierstrassInput(parse(EXAMPLE3, VarTable(("x1", "x2", "y")), Q))
    monic_rest, monic_split = lift._first_split(wi.f, descendant_loose_edges(wi),
                                                monic_last=True)
    for call in (lambda: lift_factorization(f, rest, split, N),
                 lambda: reducibility_witness(f, N),
                 lambda: lift_monic(wi, monic_rest, monic_split, N)):
        with pytest.raises(ValueError, match="nonnegative int"):
            call()


def test_reducibility_witness_example1_two_vertices():
    f = parse(EXAMPLE1, XYZ, Q)
    verdict = reducibility_witness(f, 40)
    assert isinstance(verdict, ReducibleWithFactors)


def test_reducibility_witness_binomial():
    f = parse("x + y", VarTable(("x", "y")), Q)
    verdict = reducibility_witness(f, 10)
    assert isinstance(verdict, EdgePrimePower)
    assert verdict.power == 1


def test_reducibility_witness_no_loose_edge():
    f = parse("x^2*y^3", XYZ, Q)
    verdict = reducibility_witness(f, 10)
    assert isinstance(verdict, NoLooseEdge)
    g = parse("x + y + z", XYZ, Q)
    verdict = reducibility_witness(g, 10)
    assert isinstance(verdict, NoLooseEdge)


def test_reducibility_witness_two_vertex_content():
    # two vertices but a nontrivial content: x^2*y + x*y^2 = xy(x + y)
    vt = VarTable(("x", "y"))
    f = parse("x^2*y + x*y^2", vt, Q)
    verdict = reducibility_witness(f, 12)
    assert isinstance(verdict, ReducibleWithFactors)
    assert not (f - verdict.g * verdict.h)


def test_lift_residue_ring_mod_p_semantics():
    # over Z/p^k the cofactor solves happen mod p and the loop clears the
    # residual in the residue field; canonical-residue factors can leave
    # p-divisible dregs behind
    from edgelift.coeffs import residue_ring

    Z9 = residue_ring(3, 2)
    vt = VarTable(("x", "y"))
    f = parse("x^2 + 6*x*y + 8*y^2", vt, Z9)  # (x + 4y)(x + 2y) mod 9
    e = build(f).edges[0]
    ws = orthogonal_basis(e.direction)
    bound = WeightedBound(ws.xi0, 12)
    verdict = reducibility_witness(f, bound.bound)
    assert isinstance(verdict, ReducibleWithFactors)
    resid = f - verdict.g * verdict.h
    visible = resid.map_coefficients(prime_field(3), lambda c: c % 3)
    assert not visible.truncate(bound)
    # an exactly liftable input clears exactly
    g = parse("x^2 + 3*x*y + 2*y^2", vt, Z9)
    verdict2 = reducibility_witness(g, bound.bound)
    assert isinstance(verdict2, ReducibleWithFactors)
    assert not (g - verdict2.g * verdict2.h)


def test_is_loose_rejects_foreign_edge():
    from edgelift.newton import NotAnEdge, is_loose

    f = parse(EXAMPLE1, XYZ, Q)
    np = build(f)
    foreign = Edge((0, 0, 0), (1, 1, 1), (1, 1, 1), True, False)
    with pytest.raises(NotAnEdge):
        is_loose(np, foreign)
    assert is_loose(np, np.edges[0]) is True


def test_factor_edge_univariate_unsupported_ring():
    from edgelift.coeffs import residue_ring
    from edgelift.unifactor import UnsupportedRing

    with pytest.raises(UnsupportedRing):
        factor_univariate(residue_ring(2, 4), [1, 1])


def test_lift_steps_enumerate_each_slice_once(monkeypatch):
    """Each lift step takes its h'-column slice from WeightSystem.slice
    once, anchored at a residual term, so the loop runs no Hermite solve,
    and its g'-column interval from line_interval once, on the parallel
    line through the same term; the rows are the points the columns reach,
    so the row slice is never taken.  A capped p-adic column slice holds no
    point above its cap."""
    import edgelift.grading as grading
    import edgelift.lift as lift
    from edgelift.grading import WeightSystem
    from edgelift.weier import PadicPoly, padic_newton_factor

    calls = {"solve_integer": 0, "slice": 0, "interval": 0}
    capped = []
    solve_integer, slice_ = grading.solve_integer, WeightSystem.slice
    line_interval = lift.line_interval

    def counting_solve(*args, **kwargs):
        calls["solve_integer"] += 1
        return solve_integer(*args, **kwargs)

    def counting_slice(*args, **kwargs):
        calls["slice"] += 1
        result = slice_(*args, **kwargs)
        cap = kwargs.get("max_last", args[3] if len(args) > 3 else None)
        assert cap is None or all(p[-1] <= cap for p in result.points)
        capped.append(cap is not None)
        return result

    def counting_interval(base, direction, max_last=None):
        calls["interval"] += 1
        first, count = line_interval(base, direction, max_last)
        last = exp_add(first, exp_scale(direction, count - 1)) if count else first
        assert max_last is None or not count or max(first[-1], last[-1]) <= max_last
        capped.append(max_last is not None)
        return first, count

    monkeypatch.setattr(grading, "solve_integer", counting_solve)
    monkeypatch.setattr(WeightSystem, "slice", counting_slice)
    monkeypatch.setattr(lift, "line_interval", counting_interval)

    f = parse(EXAMPLE1, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))
    calls.update(solve_integer=0, slice=0, interval=0)
    _, _, cert = lift_factorization(f, rest, split, 40)
    assert cert.steps
    assert calls == {"solve_integer": 0, "slice": len(cert.steps), "interval": len(cert.steps)}

    calls.update(solve_integer=0, slice=0, interval=0)
    capped.clear()
    steps = padic_newton_factor(PadicPoly((540, 270, 0, 1), 2, 32)).certificate.steps
    assert steps
    assert calls == {"solve_integer": 0, "slice": len(steps), "interval": len(steps)}
    assert len(capped) == 2 * len(steps) and all(capped)


def test_lift_eliminates_each_system_once_per_lift(monkeypatch):
    """A lift eliminates each h'-column once, as the first system that needs
    it grows the h'-block by one column at a time, and each system's
    g'-columns once, extending the block's elimination: steps whose columns
    repeat a system up to translation reuse it, and nothing is kept from
    one lift to the next.  Each call below is (columns before, columns
    added)."""
    import edgelift.lift as lift
    from edgelift.weier import PadicPoly, padic_newton_factor

    calls = []
    extend = lift._extend_elimination

    def counting_extend(ring, elimination, columns, m):
        calls.append((elimination[1], len(columns)))
        return extend(ring, elimination, columns, m)

    monkeypatch.setattr(lift, "_extend_elimination", counting_extend)

    f = parse(EXAMPLE1, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))
    bound = WeightedBound(rest.ws.xi0, 40)
    for _ in range(2):
        calls.clear()
        g, h, cert = lift_factorization(f, rest, split, bound.bound)
        assert not (f - g * h).truncate(bound)
        assert [tuple(s.slice_dims) for s in cert.steps] == [(2, 2), (2, 2), (3, 3), (3, 3)]
        # h'-columns 1 and 2, the (2, 2) system, h'-column 3, the (3, 3) system
        assert calls == [(0, 1), (1, 1), (2, 2), (2, 1), (3, 3)]

    for _ in range(2):
        calls.clear()
        steps = padic_newton_factor(PadicPoly((540, 270, 0, 1), 2, 32)).certificate.steps
        assert len(steps) == 44
        assert {tuple(s.slice_dims) for s in steps} == {(1, 1), (1, 2)}
        # the one h'-column, then the (1, 1) and (1, 2) systems
        assert calls == [(0, 1), (1, 1), (1, 2)]


def test_the_monic_lift_eliminates_its_h_block_once(monkeypatch):
    """Under the monic cap every step of the divisibility fixture's
    weierstrass lift (with the benchmark's dominated term x3^4) meets a new
    system, of one g'-column, while its h'-block grows by at most a column
    a step.  The lift eliminates each h'-column once and each system's
    g'-column once: re-eliminating the block for every system would take
    the sum of the steps' len_h columns instead of their maximum."""
    import edgelift.lift as lift
    from edgelift.weier import WeierstrassInput, descendant_loose_edges, lift_monic

    added = []
    extend = lift._extend_elimination

    def counting_extend(ring, elimination, columns, m):
        added.append(len(columns))
        return extend(ring, elimination, columns, m)

    monkeypatch.setattr(lift, "_extend_elimination", counting_extend)
    vars_ = VarTable(("x1", "x2", "x3"))
    for ring in (Q, prime_field(109)):
        f = parse(DIVISIBILITY_F + " + x3^4", vars_, ring)
        wi = WeierstrassInput(f)
        rest, split = lift._first_split(f, descendant_loose_edges(wi), monic_last=True)
        added.clear()
        g, h, cert = lift_monic(wi, rest, split, 44)
        dims = [tuple(s.slice_dims) for s in cert.steps]
        assert len(dims) == 19 and {len_g for _, len_g in dims} == {1}
        assert cert.exit_min_weight > 44
        len_h = max(n for n, _ in dims)
        assert sum(added) == len_h + len(dims) < sum(n for n, _ in dims)


def test_a_lift_step_builds_no_sparse_poly(monkeypatch):
    """The loops keep their residual, g, h and each step's solution as plain
    dicts and lists, so the SparsePoly constructions in _run_lift and in the
    dense p-adic loop (weier._padic_lift) do not grow with the number of
    steps.  That includes the exit weight, which a bounded lift reads layer
    by layer without building a polynomial, and padic's product check."""
    import edgelift.lift as lift
    import edgelift.weier as weier
    from edgelift.weier import PadicPoly, padic_newton_factor

    counting, built = [False], [0]
    init = SparsePoly.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += counting[0]
        init(self, *args, **kwargs)

    def counted(run):
        def counting_run(*args, **kwargs):
            counting[0] = True
            try:
                return run(*args, **kwargs)
            finally:
                counting[0] = False
        return counting_run

    monkeypatch.setattr(SparsePoly, "__init__", counting_init)
    monkeypatch.setattr(lift, "_run_lift", counted(lift._run_lift))
    monkeypatch.setattr(weier, "_padic_lift", counted(weier._padic_lift))

    def padic(k):
        built[0] = 0
        steps = padic_newton_factor(PadicPoly((540, 270, 0, 1), 2, k)).certificate.steps
        return len(steps), built[0]

    f = parse(EXAMPLE1, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))

    def example1(N):
        built[0] = 0
        return len(lift_factorization(f, rest, split, N)[2].steps), built[0]

    for lift_at, small, large in [(padic, 32, 64), (example1, 40, 120)]:
        (few, built_few), (many, built_many) = lift_at(small), lift_at(large)
        assert few < many and built_few == built_many
    assert padic(32)[0] == 44


def _products_at_the_bound(f, rest, g, h, cert, bound):
    """The exponents of f within the bound and of every product a bounded
    lift forms: G*H, then per step g'*(h + h') and g*h', truncated at the
    bound.  Each step's g' and h' are the terms of g and h in the weight
    classes step.weight + w and step.weight + z."""
    ws = rest.ws

    def layer(P, weight):
        return SparsePoly(P.nvars, P.ring,
                          {e: c for e, c in P.terms.items() if ws.weight(e) == weight})

    touched = set(f.truncate(bound).terms)
    g_sum, h_sum = layer(g, cert.w), layer(h, cert.z)
    touched.update(g_sum.mul(h_sum, bound).terms)
    for step in cert.steps:
        g_part = layer(g, exp_add(step.weight, cert.w))
        h_part = layer(h, exp_add(step.weight, cert.z))
        h_sum = h_sum + h_part
        touched.update(g_part.mul(h_sum, bound).terms)
        touched.update(g_sum.mul(h_part, bound).terms)
        g_sum = g_sum + g_part
    return touched


@pytest.mark.parametrize("N", [40, 120])
def test_a_lift_weighs_each_residual_exponent_once(monkeypatch, N):
    """The loop computes the weight of each exponent the residual holds
    once: f's terms within the bound and the terms of the products formed at
    the lift's bound.  Besides those it weighs G, H and the two slice anchors
    of each step; rescanning the whole residual every step costs more."""
    from edgelift.grading import WeightSystem

    f = parse(EXAMPLE1, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))
    calls = [0]
    weight = WeightSystem.weight

    def counting_weight(self, alpha):
        calls[0] += 1
        return weight(self, alpha)

    monkeypatch.setattr(WeightSystem, "weight", counting_weight)
    g, h, cert = lift_factorization(f, rest, split, N)
    monkeypatch.undo()
    touched = _products_at_the_bound(f, rest, g, h, cert, WeightedBound(rest.ws.xi0, N))
    assert len(cert.steps) >= 4
    assert calls[0] <= len(split.G) + len(split.H) + len(touched) + 2 * len(cert.steps)


@pytest.mark.parametrize("f_text, exit_weight", [
    # f - G*H is x*y*z^4 - x^7*y^5*z^2, of weights 22 and 40
    (EXAMPLE1, 22),
    # f = G*H: nothing remains
    ("x^6*y^2 - z^4", None),
    # one term far above the edge, with no layer of G*H near it
    ("x^6*y^2 - z^4 + x^1000000*y^1000000", 6000000),
], ids=["example1", "exact", "far_term"])
def test_the_exit_weight_of_a_bounded_lift_forms_no_product(monkeypatch, f_text, exit_weight):
    """At N = 0 no step runs, and the exit weight is read layer by layer from
    f and the weight classes of g and h, without a SparsePoly product."""
    f = parse(f_text, XYZ, Q)
    rest = edge_restriction(f, build(f).edges[0])
    split = SplitRequest(parse("x^3*y - z^2", XYZ, Q), parse("x^3*y + z^2", XYZ, Q))
    seen = []
    mul = SparsePoly.mul

    def recording_mul(self, other, trunc=None):
        seen.append(None if trunc is None else trunc.bound)
        return mul(self, other, trunc)

    monkeypatch.setattr(SparsePoly, "mul", recording_mul)
    g, h, cert = lift_factorization(f, rest, split, 0)
    monkeypatch.undo()
    assert not cert.steps
    # G*H in the split check, then the residual at the bound 0
    assert seen == [None, 0]
    assert cert.exit_min_weight == _residual_weight(f, g, h, rest) == exit_weight


def test_edge_restriction_of_a_long_edge():
    """The restriction picks f's terms on the segment, whose 10^6 lattice
    points carry two of them."""
    vt = VarTable(("x", "y"))
    f = parse("x^1000000*y - x*y^1000000", vt, Q)
    e = build(f).edges[0]
    rest = edge_restriction(f, e)
    assert rest.poly == f
    assert rest.content == (1, 1000000)
    uni = rest.univariate
    assert len(uni) == 1000000
    assert (uni[0], uni[-1]) == (-1, 1)
    assert sum(1 for c in uni if c) == 2


def _random_edge_input(rng):
    """A random polynomial in 2 or 3 variables over Q, F_p or Z/p^k; over
    Z/p^k about a third of its coefficients are divisible by p."""
    nvars = rng.choice((2, 3))
    p = rng.choice((2, 3, 5))
    ring = rng.choice((Q, prime_field(p), residue_ring(p, rng.randint(2, 4))))
    divisible = 1 / 3 if ring.kind == RESIDUE_RING else 0
    terms = {}
    for _ in range(rng.randint(3, 6)):
        exponent = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = rng.choice((1, -1)) * rng.randint(1, p - 1)
        terms[exponent] = c * p if rng.random() < divisible else c
    return SparsePoly(nvars, ring, {e: ring.normalize(c) for e, c in terms.items()})


def _residual_weight(f, g, h, rest):
    """Least rest.ws.xi0 weight of f - g*h over the residue field."""
    residual = f - g * h
    K = f.ring.residue_field()
    return residual.map_coefficients(K, f.ring.to_residue).min_weighted_degree(rest.ws.xi0)


@pytest.mark.parametrize("monic", [False, True])
def test_the_lift_accepts_every_split_the_chooser_returns(monic):
    """Whenever _first_split returns a SplitRequest, the plain lift (loose
    edges) or the monic lift (descendant loose edges) takes it without an
    InvalidSplit and clears f - g*h up to the bound, mod p over Z/p^k.
    Over Z/p^k the lift is that of f mod p over F_p: the same g, h (as
    canonical residues) and certificate."""
    from edgelift.lift import _first_split
    from edgelift.weier import WeierstrassInput, descendant_loose_edges, lift_monic

    rng = random.Random(4242 + monic)
    lifted = Counter()
    for _ in range(600):
        f = _random_edge_input(rng)
        if not f:
            continue
        if monic:
            wi = WeierstrassInput(f)
            edges = descendant_loose_edges(wi)
        else:
            edges = [e for e in build(f).edges if e.loose]
        if not edges:
            continue
        try:
            rest, split = _first_split(f, edges, monic_last=monic)
        except EmptyFace:
            continue
        if not isinstance(split, SplitRequest):
            continue
        N = rng.randint(0, 16)

        def lifted_pair(f):
            if monic:
                return lift_monic(WeierstrassInput(f), rest, split, N)
            return lift_factorization(f, rest, split, N)

        g, h, cert = lifted_pair(f)
        weight = _residual_weight(f, g, h, rest)
        assert weight is None or weight > N, (f, rest.edge)
        assert cert.exit_min_weight == weight, (f, rest.edge)
        if f.ring.kind == RESIDUE_RING:
            K = f.ring.residue_field()
            g_p, h_p, cert_p = lifted_pair(f.map_coefficients(K, f.ring.to_residue))
            assert (g.terms, h.terms) == (g_p.terms, h_p.terms), (f, rest.edge)
            assert cert.to_dict() == cert_p.to_dict(), (f, rest.edge)
        lifted[f.ring.kind] += 1
    assert min(lifted.values()) >= 20 and len(lifted) == 3, lifted
