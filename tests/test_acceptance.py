"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from edgelift.coeffs import prime_field, rationals, residue_ring
from edgelift.expr import VarTable, parse, render
from edgelift.grading import basis_reduction_steps, orthogonal_basis
from edgelift.lift import (ReducibleWithFactors, SplitRequest, coprime_check,
                           edge_poly_from_univariate, edge_restriction,
                           lift_factorization, reducibility_witness, restrict,
                           solve_cofactor)
from edgelift.newton import build, build_from_support, face_of, minkowski
from edgelift.poly import SparsePoly, WeightedBound, exp_add
from edgelift.unifactor import pmul
from edgelift.weier import (NoCoprimeSplit, PadicFactors, PadicPoly,
                            WeierstrassInput, descendant_loose_edges,
                            lift_monic, padic_newton_factor, poly_divide,
                            weierstrass_normalize)

from edgelift.cli import main as cli_main

from oracles import oracle_edges, oracle_is_loose, oracle_vertices

Q = rationals()
XYZ = VarTable(("x", "y", "z"))
X12Y = VarTable(("x1", "x2", "y"))
X123 = VarTable(("x1", "x2", "x3"))

EXAMPLE1 = "x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2"
EXAMPLE2 = "x*y*z + x^3*y^3 + x^3*z^3 + y^3*z^3"
EXAMPLE3 = "y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18"
DIVISIBILITY_F = "x3^3 + x1*x2*x3^2 + x1*x2*x3 + x1^2*x2^2"
F4 = (540, 270, 0, 1)


def report(n, message):
    print(f"criterion {n}: PASS - {message}")


def run_cli(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_example1(capsys):
    start = time.monotonic()
    code, report_1 = run_cli(capsys, ["analyze", EXAMPLE1])
    assert code == 0
    assert report_1["vertices"] == [[0, 0, 4], [6, 2, 0]]
    assert sum(1 for e in report_1["edges"] if e["loose"]) == 1

    f = parse(EXAMPLE1, XYZ, Q)
    np = build(f)
    assert set(np.vertices) == {(6, 2, 0), (0, 0, 4)}
    loose = [e for e in np.edges if e.loose]
    assert len(loose) == 1
    edge = loose[0]
    rest = edge_restriction(f, edge)
    assert rest.poly == parse("x^6*y^2 - z^4", XYZ, Q)

    ws = rest.ws
    bound = WeightedBound(ws.xi0, 40)
    verdict = reducibility_witness(f, bound.bound)
    assert isinstance(verdict, ReducibleWithFactors)
    residual = f - verdict.g * verdict.h
    assert residual.truncate(bound) == SparsePoly.zero(3, Q)

    g0 = restrict(verdict.g, face_of(build(verdict.g), ws.xi0)[0])
    h0 = restrict(verdict.h, face_of(build(verdict.h), ws.xi0)[0])
    assert g0 == parse("x^3*y - z^2", XYZ, Q)
    assert h0 == parse("x^3*y + z^2", XYZ, Q)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"Example 1 vertices/restriction/lift at N=40 ({elapsed:.2f}s)")


def test_criterion_2_example2(capsys):
    start = time.monotonic()
    code, report_2 = run_cli(capsys, ["analyze", EXAMPLE2])
    assert code == 0
    assert sum(1 for e in report_2["edges"] if e["loose"]) == 3
    assert report_2["polygonal"] is True

    f = parse(EXAMPLE2, XYZ, Q)
    np = build(f)
    loose = [e for e in np.edges if e.loose]
    assert len(loose) == 3
    edge = np.edge_between((1, 1, 1), (3, 3, 0))
    rest = edge_restriction(f, edge)
    assert rest.poly == parse("x*y", XYZ, Q) * parse("z + x^2*y^2", XYZ, Q)

    first = loose[0]
    bound = WeightedBound(orthogonal_basis(first.direction).xi0, 30)
    verdict = reducibility_witness(f, bound.bound)
    assert isinstance(verdict, ReducibleWithFactors)
    residual = f - verdict.g * verdict.h
    min_weight = residual.min_weighted_degree(bound.weights)
    assert min_weight is None or min_weight > 30
    code, check = run_cli(capsys, [
        "verify", EXAMPLE2, render(verdict.g, XYZ), render(verdict.h, XYZ),
        "--bound", "30", "--edge", "0"])
    assert code == 0 and check["pass"] is True
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"Example 2 three loose edges, witness verifies at N=30 ({elapsed:.2f}s)")


def test_criterion_3_example3():
    start = time.monotonic()
    f = parse(EXAMPLE3, X12Y, Q)
    wi = WeierstrassInput(f)
    edges = descendant_loose_edges(wi)
    assert [(e.a, e.b) for e in edges] == [((5, 4, 2), (15, 18, 0))]
    edge = edges[0]
    rest = edge_restriction(f, edge)
    assert rest.poly == parse("x1^5*x2^4*y^2 - x1^15*x2^18", X12Y, Q)

    from edgelift.lift import _split_from_restriction

    split = _split_from_restriction(rest, monic_last=True)
    assert split.G == parse("y - x1^5*x2^7", X12Y, Q)
    ws = rest.ws

    results = {}
    for n in (30, 60):
        gbar, hbar, _ = lift_monic(wi, rest, split, n)
        results[n] = (gbar, hbar)
    gbar, hbar = results[60]
    bx = -(-60 // min(ws.xi0))
    unit, g = weierstrass_normalize(gbar, 1, WeightedBound((1, 1, 0), bx))
    assert max(e[-1] for e in g.terms) == 1 and g.coeff((0, 0, 1)) == 1
    h, _ = poly_divide(f, g, WeightedBound((1, 1, 0), bx))
    bound60 = WeightedBound(ws.xi0, 60)
    assert (f - g * h).truncate(bound60) == SparsePoly.zero(3, Q)

    # bound stability: the N=30 and N=60 runs agree on their common prefix
    w = sum(ws.weight(next(iter(split.G.terms))))
    z = sum(ws.weight(next(iter(split.H.terms))))
    cut_g = WeightedBound(ws.xi0, 30 - z)
    cut_h = WeightedBound(ws.xi0, 30 - w)
    assert results[30][0].truncate(cut_g) == results[60][0].truncate(cut_g)
    assert results[30][1].truncate(cut_h) == results[60][1].truncate(cut_h)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"Example 3 monic pipeline at N=60 with prefix stability ({elapsed:.2f}s)")


def test_criterion_4_example4(capsys):
    timings = []

    code, padic_report = run_cli(capsys, [
        "padic", "-p", "3", "--prec", "8", "y^3 + 270*y + 540"])
    assert code == 2 and padic_report["verdict"] == "no_coprime_split"

    start = time.monotonic()
    pp2 = PadicPoly(F4, 2, 32)
    v2 = padic_newton_factor(pp2)
    assert isinstance(v2, PadicFactors)
    assert set(v2.polygon.vertices) == {(0, 3), (1, 1), (2, 0)}
    g, h = v2.factors
    ring = residue_ring(2, 32)
    assert pmul(list(g), list(h), ring) == [c % 2**32 for c in F4]
    timings.append(time.monotonic() - start)

    start = time.monotonic()
    v3 = padic_newton_factor(PadicPoly(F4, 3, 8))
    assert isinstance(v3, NoCoprimeSplit)
    assert v3.power == 3
    # the edge restriction is Y^3 + 2 P^3 = (Y + 2P)^3 over F_3: the unit on
    # the constant vertex is 540/27 = 20 = 2 mod 3
    assert render(v3.factor, VarTable(("p", "y"))) == "y + 2*p"
    cube = v3.factor.pow(3)
    rest3 = parse("y^3 + 2*p^3", VarTable(("p", "y")), prime_field(3))
    assert cube == rest3
    timings.append(time.monotonic() - start)

    start = time.monotonic()
    v5 = padic_newton_factor(PadicPoly(F4, 5, 8))
    assert isinstance(v5, NoCoprimeSplit)
    assert len(v5.polygon.edges) == 1
    assert v5.power == 1
    timings.append(time.monotonic() - start)

    assert all(t < 2.0 for t in timings)
    report(4, "Example 4 p=2 factors mod 2^32, p=3/p=5 no coprime split "
              f"({', '.join(f'{t:.2f}s' for t in timings)})")


def test_criterion_5_divisibility_fixture():
    f = parse(DIVISIBILITY_F, X123, Q)
    np = build(f)
    edge = np.edge_between((1, 1, 1), (2, 2, 0))
    rest = edge_restriction(f, edge)
    ws = rest.ws
    bound = WeightedBound(ws.xi0, 30)

    from edgelift.lift import DIVISIBLE_BY_VARIABLE, InvalidSplit

    bad = SplitRequest(parse("x2*(x3 + x1*x2)", X123, Q), parse("x1", X123, Q))
    try:
        lift_factorization(f, rest, bad, bound.bound)
        raise AssertionError("split should have been rejected")
    except InvalidSplit as err:
        assert err.reason == DIVISIBLE_BY_VARIABLE

    good = SplitRequest(parse("x3 + x1*x2", X123, Q), parse("x1*x2", X123, Q))
    g, h, cert = lift_factorization(f, rest, good, bound.bound)
    assert g == parse("x3 + x1*x2", X123, Q)
    assert h == parse("x3^2 + x1*x2", X123, Q)
    assert not (f - g * h)
    e2 = face_of(build(h), ws.xi0)[0]
    assert len(e2) == 1  # E2 is a vertex
    report(5, "divisibility fixture: bad split rejected, exact factors recovered")


def random_primitive_direction(rng, n, max_entry):
    while True:
        c = tuple(rng.randint(-max_entry, max_entry) for _ in range(n))
        if not (any(x > 0 for x in c) and any(x < 0 for x in c)):
            continue
        g = 0
        for x in c:
            g = gcd(g, abs(x))
        return tuple(x // g for x in c)


def test_criterion_6_dimension_formula_suite():
    rng = random.Random(240601)
    checked = 0
    failures = 0
    while checked < 200:
        n = rng.randint(2, 4)
        c = random_primitive_direction(rng, n, 6)
        ws = orthogonal_basis(c)
        r = rng.randint(1, 4)
        start = tuple(r * max(0, -d) for d in c)
        w = ws.weight(start)
        sl_w = ws.slice(w)
        first, last = sl_w.points[0], sl_w.points[-1]
        if any(min(a, b) != 0 for a, b in zip(first, last)):
            continue
        z = ws.weight(tuple(rng.randint(-4, 7) for _ in range(n)))
        if any(x < 0 for x in z) or sum(z) > 30 or not ws.in_monoid(z):
            continue
        total = ws.slice(exp_add(w, z)).dim
        if total != sl_w.dim + ws.slice(z).dim - 1:
            failures += 1
        checked += 1
    assert failures == 0
    report(6, "dimension formula holds on 200 randomized slice instances")


def test_criterion_7_basis_suite():
    rng = random.Random(240701)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        c = random_primitive_direction(rng, n, 50)
        basis, trace = basis_reduction_steps(c)
        sums = [sum(abs(x) for x in w) for w in trace]
        ok = all(a > b for a, b in zip(sums, sums[1:]))
        ok = ok and all(all(x >= 0 for x in v) for v in basis)
        ok = ok and all(sum(a * b for a, b in zip(v, c)) == 0 for v in basis[:-1])
        det = _int_det([list(v) for v in basis])
        ok = ok and det != 0
        if not ok:
            failures += 1
    assert failures == 0
    report(7, "500 basis constructions valid with strictly decreasing measure")


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if m[0][j]:
            total += sign * m[0][j] * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
        sign = -sign
    return total


def test_criterion_8_oracle_equivalence():
    rng = random.Random(240801)
    for _ in range(1000):
        n = rng.randint(2, 4)
        pts = sorted({tuple(rng.randint(0, 8) for _ in range(n))
                      for _ in range(rng.randint(1, 8))})
        np = build_from_support(pts, n)
        assert list(np.vertices) == oracle_vertices(pts, n)
        got = sorted((min(e.a, e.b), max(e.a, e.b)) for e in np.edges)
        want = sorted(tuple(sorted(p)) for p in oracle_edges(np.vertices, n))
        assert got == want
        for e in np.edges:
            assert e.loose == oracle_is_loose(e.a, e.b, np.vertices, n)
    report(8, "LP classification matches the brute-force oracle on 1000 supports")


def test_criterion_9_minkowski_property():
    rng = random.Random(240901)
    for _ in range(200):
        n = rng.randint(2, 3)
        f = SparsePoly(n, Q, {tuple(rng.randint(0, 5) for _ in range(n)):
                              Fraction(rng.randint(1, 9))
                              for _ in range(rng.randint(1, 5))})
        g = SparsePoly(n, Q, {tuple(rng.randint(0, 5) for _ in range(n)):
                              Fraction(rng.randint(1, 9))
                              for _ in range(rng.randint(1, 5))})
        assert build(f * g).vertices == minkowski(build(f), build(g)).vertices
    report(9, "vertices of product polyhedra equal Minkowski sums on 200 pairs")


def _random_cofactor_instance(rng, ring):
    from edgelift.unifactor import degree, pgcd

    n = rng.randint(2, 4)
    ws = orthogonal_basis(random_primitive_direction(rng, n, 4))
    while True:
        du, dv = rng.randint(1, 3), rng.randint(0, 2)
        u = [ring.normalize(rng.randint(-5, 5)) for _ in range(du)] + [ring.normalize(rng.randint(1, 5))]
        v = [ring.normalize(rng.randint(-5, 5)) for _ in range(dv)] + [ring.normalize(rng.randint(1, 5))]
        if not u[0] or not v[0]:
            continue
        if degree(pgcd(u, v, ring)) != 0:
            continue
        G = edge_poly_from_univariate(ring, n, ws.direction, u)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        H = edge_poly_from_univariate(ring, n, ws.direction, v).mul_monomial(m)
        if G and H and coprime_check(G, H):
            return ws, G, H


def test_criterion_10_cofactor_suites():
    rng = random.Random(241001)
    done = 0
    while done < 100:
        ring = Q if rng.random() < 0.5 else prime_field(7)
        ws, G, H = _random_cofactor_instance(rng, ring)
        n = ws.nvars
        w = ws.weight(next(iter(G.terms)))
        z = ws.weight(next(iter(H.terms)))
        i = ws.weight(tuple(rng.randint(0, 3) for _ in range(n)))
        sl = ws.slice(exp_add(exp_add(w, z), i))
        if sl.dim == 0:
            continue
        r = SparsePoly(n, ring, {p: ring.normalize(rng.randint(-5, 5)) for p in sl.points})
        if not r:
            continue
        hp, gp = solve_cofactor(G, H, r, ws)
        assert G * hp + H * gp == r
        done += 1

    done = 0
    while done < 100:
        ws, G, H1 = _random_cofactor_instance(rng, Q)
        n = ws.nvars
        dv = rng.randint(0, 2)
        v = [Fraction(rng.randint(-5, 5)) for _ in range(dv)] + [Fraction(rng.randint(1, 5))]
        if v[0] == 0:
            continue
        H2 = edge_poly_from_univariate(Q, n, ws.direction, v)
        product = H1 * H2
        try:
            if not coprime_check(G, product):
                continue
        except Exception:
            continue
        w = ws.weight(next(iter(G.terms)))
        z = ws.weight(next(iter(product.terms)))
        i = ws.weight(tuple(rng.randint(0, 2) for _ in range(n)))
        sl = ws.slice(exp_add(exp_add(w, z), i))
        if sl.dim == 0:
            continue
        r = SparsePoly(n, Q, {p: Fraction(rng.randint(-4, 4)) for p in sl.points})
        if not r:
            continue
        hp, gp = solve_cofactor(G, product, r, ws)
        assert G * hp + product * gp == r
        done += 1
    report(10, "cofactor identity and composition hold on 100 instances each")
