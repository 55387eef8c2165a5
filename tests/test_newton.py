import random
from fractions import Fraction

import pytest

from edgelift.coeffs import rationals
from edgelift.expr import VarTable, parse
from edgelift.newton import (DimensionMismatch, NotAnEdge, ZeroPolynomial,
                             build, build_from_support, face_of,
                             is_loose, is_polygonal, minkowski)
from edgelift.poly import SparsePoly

from oracles import oracle_edges, oracle_is_loose, oracle_vertices

Q = rationals()
XYZ = VarTable(("x", "y", "z"))

EXAMPLE1 = "x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2"
EXAMPLE2 = "x*y*z + x^3*y^3 + x^3*z^3 + y^3*z^3"


def poly_from_support(points, nvars):
    return SparsePoly(nvars, Q, {tuple(p): Fraction(1) for p in points})


def test_build_example1():
    np = build(parse(EXAMPLE1, XYZ, Q))
    assert set(np.vertices) == {(6, 2, 0), (0, 0, 4)}
    assert len(np.edges) == 1
    e = np.edges[0]
    assert {e.a, e.b} == {(6, 2, 0), (0, 0, 4)}
    assert e.loose


def test_build_single_monomial():
    np = build(parse("x^2", XYZ, Q))
    assert np.vertices == ((2, 0, 0),)
    assert np.edges == ()
    assert is_polygonal(np)  # vacuously


def test_build_example2():
    np = build(parse(EXAMPLE2, XYZ, Q))
    assert set(np.vertices) == {(1, 1, 1), (3, 3, 0), (3, 0, 3), (0, 3, 3)}
    loose = [e for e in np.edges if e.loose]
    assert len(loose) == 3
    assert all({(1, 1, 1)} < {e.a, e.b} for e in loose)
    assert is_polygonal(np)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        build(SparsePoly.zero(3, Q))


def test_face_of_example1():
    np = build(parse(EXAMPLE1, XYZ, Q))
    face, compact = face_of(np, (1, 1, 1))
    assert face == ((0, 0, 4),) and compact


def test_face_of_coordinate_direction():
    f = parse("x^2 + y + x*y^3", VarTable(("x", "y")), Q)
    np = build(f)
    face, compact = face_of(np, (1, 0))
    # the x-free sub-support
    assert face == ((0, 1),) and not compact


def test_face_of_example3_edge():
    vt = VarTable(("x1", "x2", "y"))
    f = parse("y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18", vt, Q)
    np = build(f)
    # derived by enumerating small xi: xi = (1, 1, 12) exposes the edge
    face, compact = face_of(np, (1, 1, 12))
    assert set(face) == {(5, 4, 2), (15, 18, 0)} and compact
    with pytest.raises(DimensionMismatch):
        face_of(np, (1, 1))


def test_compact_edges_examples():
    np = build(parse(EXAMPLE1, XYZ, Q))
    assert len(np.edges) == 1
    mono = build(parse("x^3*y", XYZ, Q))
    assert mono.edges == ()
    # Example 4 polygon at p = 2: support points (v_2(a_j), j)
    np4 = build_from_support([(2, 0), (1, 1), (0, 3)], 2)
    assert set(np4.vertices) == {(0, 3), (1, 1), (2, 0)}
    assert len(np4.edges) == 2
    assert all(e.loose for e in np4.edges)


def test_loose_plane_polyhedra_always():
    rng = random.Random(31)
    for _ in range(40):
        pts = {(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rng.randint(1, 6))}
        np = build_from_support(pts, 2)
        assert all(e.loose for e in np.edges)


def test_simplex_face_not_loose():
    np = build(parse("x + y + z", XYZ, Q))
    assert len(np.edges) == 3
    assert not any(e.loose for e in np.edges)
    assert not is_polygonal(np)


def test_example2_specific_edge_loose():
    np = build(parse(EXAMPLE2, XYZ, Q))
    e = np.edge_between((1, 1, 1), (3, 3, 0))
    assert is_loose(np, e)
    with pytest.raises(NotAnEdge):
        np.edge_between((3, 3, 0), (3, 0, 3))


def test_minkowski_identity_and_segment_shift():
    np1 = build(parse(EXAMPLE1, XYZ, Q))
    origin = build_from_support([(0, 0, 0)], 3)
    assert minkowski(np1, origin).vertices == np1.vertices

    seg = build_from_support([(0, 0, 1), (1, 1, 0)], 3)
    pt = build_from_support([(1, 1, 0)], 3)
    total = minkowski(seg, pt)
    assert set(total.vertices) == {(1, 1, 1), (2, 2, 0)}


def test_minkowski_of_product_supports():
    rng = random.Random(555)
    for _ in range(60):
        f = poly_from_support({tuple(rng.randint(0, 5) for _ in range(3))
                               for _ in range(rng.randint(1, 4))}, 3)
        g = poly_from_support({tuple(rng.randint(0, 5) for _ in range(3))
                               for _ in range(rng.randint(1, 4))}, 3)
        assert build(f * g).vertices == minkowski(build(f), build(g)).vertices


def test_edge_lower_bound_property():
    # for every loose edge with ends a, b, every support point c and sampled
    # nonnegative xi with <xi, b-a> = 0: <xi, c> >= <xi, a>
    rng = random.Random(2718)
    polys = [parse(EXAMPLE1, XYZ, Q), parse(EXAMPLE2, XYZ, Q)]
    for _ in range(30):
        pts = {tuple(rng.randint(0, 6) for _ in range(3))
               for _ in range(rng.randint(2, 6))}
        polys.append(poly_from_support(pts, 3))
    for f in polys:
        np = build(f)
        for e in np.edges:
            if not e.loose:
                continue
            d = tuple(x - y for x, y in zip(e.b, e.a))
            pos = next(i for i, x in enumerate(d) if x > 0)
            neg = next(i for i, x in enumerate(d) if x < 0)
            for _ in range(200):
                xi = [Fraction(rng.randint(0, 9)) for _ in d]
                s = sum(x * y for x, y in zip(xi, d))
                if s > 0:
                    xi[neg] += Fraction(s, -d[neg])
                elif s < 0:
                    xi[pos] += Fraction(-s, d[pos])
                assert sum(x * y for x, y in zip(xi, d)) == 0
                va = sum(x * y for x, y in zip(xi, e.a))
                for c in np.support:
                    assert sum(x * y for x, y in zip(xi, c)) >= va


def test_two_vertex_criterion():
    # a loose edge whose endpoints have componentwise min zero forces exactly
    # two vertices
    rng = random.Random(1618)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        a = tuple(rng.randint(0, 5) if rng.random() < 0.5 else 0 for _ in range(n))
        b = tuple(rng.randint(1, 5) if a[i] == 0 else 0 for i in range(n))
        if not any(a) or not any(b):
            continue
        pts = {a, b}
        for _ in range(rng.randint(0, 4)):
            lam = rng.random()
            mix = tuple(int(lam * x + (1 - lam) * y) + rng.randint(0, 3)
                        for x, y in zip(a, b))
            pts.add(mix)
        np = build_from_support(pts, n)
        for e in np.edges:
            if e.loose and all(min(x, y) == 0 for x, y in zip(e.a, e.b)):
                checked += 1
                assert len(np.vertices) == 2
    assert checked > 50


def test_structural_invariants_random():
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randint(2, 4)
        pts = {tuple(rng.randint(0, 6) for _ in range(n))
               for _ in range(rng.randint(1, 7))}
        np = build_from_support(pts, n)
        vset = set(np.vertices)
        assert vset <= set(np.support)
        for e in np.edges:
            assert e.a in vset and e.b in vset
            if e.loose:
                assert e in np.edges  # loose edges are compact edges by construction


def test_oracle_agreement_focused():
    # the big randomized sweep lives in the acceptance suite; keep a smaller
    # deterministic cross-check here
    rng = random.Random(112)
    for _ in range(60):
        n = rng.randint(2, 4)
        pts = sorted({tuple(rng.randint(0, 8) for _ in range(n))
                      for _ in range(rng.randint(1, 8))})
        np = build_from_support(pts, n)
        assert list(np.vertices) == oracle_vertices(pts, n)
        got_edges = sorted((min(e.a, e.b), max(e.a, e.b)) for e in np.edges)
        want_edges = sorted(tuple(sorted(p)) for p in oracle_edges(np.vertices, n))
        assert got_edges == want_edges
        for e in np.edges:
            assert e.loose == oracle_is_loose(e.a, e.b, np.vertices, n)
