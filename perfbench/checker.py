"""Checks of request outputs, run outside the timed region.

A request fails when the CLI raised, when its exit code or verdict differs
from the one its construction implies, or when its result is wrong:

* ``factor`` / ``weierstrass``: the reported edge must be the lifted edge of
  the construction; ``g`` and ``h`` must each start, in the grading of the
  edge, with a non-constant part, and those parts must multiply to the terms
  of ``f`` on the edge, so a trivial split such as ``g = f, h = 1`` fails;
  and ``f - g*h`` must have no term of weighted degree at or below the
  bound, in the ``xi0`` weights of the *reported* edge.  Over ``Z/p^k`` the
  lift clears the residual in the residue field ``F_p`` (the lifting loop's
  documented contract), so the residual is reduced mod ``p``.
* ``padic``: at least two factors, whose degrees sum to ``deg f`` and whose
  product equals ``f`` modulo ``p^k``.
* ``analyze``: vertices, edges and loose flags equal the brute-force oracles
  of ``tests/oracles.py`` (3-variable inputs only: the oracle enumerates
  ``C(|S|, n-1)`` cofactor kernels per point, which is seconds per 4-variable
  input), and every edge restriction equals the input's terms on the edge.
* ``verify``: the exact product passes.

All products here use ``polyarith``, never ``SparsePoly.mul``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from polyarith import parse_rendered, poly_mul, reduce_terms


def check(request, code, out, edgelift_grading, oracles):
    """Return None when the output is right, else a one-line reason."""
    expect = request.expect
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    kind = expect["check"]
    if kind == "lift":
        return _check_lift(expect, report, edgelift_grading)
    if kind == "padic":
        return _check_padic(expect, report)
    if kind == "geometry":
        return _check_geometry(expect, report, oracles)
    if kind == "verify":
        if report.get("pass") is not True or report.get("residual_min_weight") is not None:
            return f"verify of an exact product did not pass: {report}"
        return None
    raise ValueError(f"unknown check {kind!r}")


def _ring_reduce(terms, modulus):
    """Map rational coefficients into Z/modulus (modulus None: keep Q)."""
    if modulus is None:
        return reduce_terms(terms)
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        out[e] = c.numerator * pow(c.denominator, -1, modulus) % modulus
    return reduce_terms(out)


def low_residual(f, g, h, weights, bound, modulus):
    """Terms of f - g*h of weighted degree <= bound, coefficients reduced."""
    def weight(e):
        return sum(w * x for w, x in zip(weights, e))

    # Weights are positive, so factor terms above the bound cannot contribute.
    gl = [(e, c, weight(e)) for e, c in g.items() if weight(e) <= bound]
    hl = [(e, c, weight(e)) for e, c in h.items() if weight(e) <= bound]
    acc = {e: c for e, c in f.items() if weight(e) <= bound}
    for e1, c1, w1 in gl:
        for e2, c2, w2 in hl:
            if w1 + w2 <= bound:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) - c1 * c2
    return _ring_reduce(acc, modulus)


def _check_lift(expect, report, grading):
    if report.get("verdict") != expect["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}"
    edge = report["edge"]
    a, b = expect["edge"]
    if (tuple(edge["a"]), tuple(edge["b"])) != (a, b):
        return f"lifted edge {edge['a']}-{edge['b']}, expected {list(a)}-{list(b)}"
    direction = tuple(edge["dir"])
    xi0 = grading.orthogonal_basis(direction).xi0
    if any(w <= 0 for w in xi0) or sum(w * d for w, d in zip(xi0, direction)):
        return f"weights {xi0} are not positive and orthogonal to {direction}"
    names = expect["names"]
    g = parse_rendered(report["g"], names)
    h = parse_rendered(report["h"], names)
    # The residual lives in the residue field: F_p for Z/p^k, the ring itself
    # for Q and F_p.
    residue = expect["prime"]
    reason = _check_edge_split(expect["f"], g, h, a, b, grading.orthogonal_basis(direction),
                               residue)
    if reason:
        return reason
    low = low_residual(expect["f"], g, h, xi0, expect["bound"], residue)
    if low:
        worst = min(sum(w * x for w, x in zip(xi0, e)) for e in low)
        return (f"f - g*h has {len(low)} terms at or below bound {expect['bound']} "
                f"(lowest weight {worst})")
    return None


def initial_part(terms, weight):
    """The terms at the componentwise least weight, or {} when no term has
    it.  The lift only adds terms of higher weight to its starting split, so
    a lifted factor's initial part is the split's factor."""
    weights = {e: weight(e) for e in terms}
    if not weights:
        return {}
    least = tuple(map(min, zip(*weights.values())))
    return {e: c for e, c in terms.items() if weights[e] == least}


def _check_edge_split(f, g, h, a, b, ws, residue):
    """None when g and h start with non-constant parts whose product is f's
    restriction to the edge [a, b], all in the residue field."""
    parts = []
    for name, factor in (("g", g), ("h", h)):
        part = initial_part(_ring_reduce(factor, residue), ws.weight)
        if not part or all(not any(e) for e in part):
            return f"{name} restricts to a constant on the edge: a trivial split"
        parts.append(part)
    on_edge = _ring_reduce({p: f[p] for p in _edge_points(a, b) if p in f}, residue)
    if _ring_reduce(poly_mul(*parts), residue) != on_edge:
        return "the initial parts of g and h do not multiply to f on the edge"
    return None


def _dense(terms):
    top = max(e[0] for e in terms)
    out = [0] * (top + 1)
    for (j,), c in terms.items():
        if Fraction(c).denominator != 1:
            raise ValueError("non-integral p-adic coefficient")
        out[j] = int(c)
    return out


def _check_padic(expect, report):
    if report.get("verdict") != expect["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}"
    modulus = expect["p"] ** expect["k"]
    factors = [_dense(parse_rendered(text, ("y",))) for text in report["factors"]]
    degrees = [len(factor) - 1 for factor in factors]
    if len(factors) < 2 or min(degrees) < 1 or sum(degrees) != len(expect["coeffs"]) - 1:
        return f"factor degrees {degrees} do not split degree {len(expect['coeffs']) - 1}"
    product = [1]
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, x in enumerate(product):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        product = out
    want = [c % modulus for c in expect["coeffs"]]
    got = [c % modulus for c in product]
    while got and got[-1] == 0:
        got.pop()
    if got != want:
        return f"product of the factors differs from f mod {expect['p']}^{expect['k']}"
    return None


def _edge_points(a, b):
    diff = [y - x for x, y in zip(a, b)]
    steps = 0
    for d in diff:
        steps = gcd(steps, d)
    return [tuple(x + t * d // steps for x, d in zip(a, diff)) for t in range(steps + 1)]


def _check_geometry(expect, report, oracles):
    f, names = expect["f"], expect["names"]
    support = sorted(f)
    vertices = [tuple(v) for v in report["vertices"]]
    edges = {(tuple(e["a"]), tuple(e["b"])): e for e in report["edges"]}
    if not set(vertices) <= set(support):
        return "a reported vertex is not a support point"
    for (a, b), entry in edges.items():
        if a not in vertices or b not in vertices:
            return f"edge {list(a)}-{list(b)} does not join two vertices"
        on_edge = {p: f[p] for p in _edge_points(a, b) if p in f}
        if parse_rendered(entry["restriction"], names) != reduce_terms(on_edge):
            return f"restriction on edge {list(a)}-{list(b)} differs from the input terms"
    if report["polygonal"] != all(e["loose"] for e in edges.values()):
        return "polygonal flag disagrees with the loose flags"
    n = len(names)
    if n != 3:
        return None
    want_vertices = oracles.oracle_vertices(support, n)
    if sorted(vertices) != sorted(want_vertices):
        return f"vertices differ from the oracle: {len(vertices)} vs {len(want_vertices)}"
    want_edges = {tuple(sorted((a, b), key=lambda e: (sum(e), e)))
                  for a, b in oracles.oracle_edges(want_vertices, n)}
    if set(edges) != want_edges:
        return f"edges differ from the oracle: {len(edges)} vs {len(want_edges)}"
    for (a, b), entry in edges.items():
        if entry["loose"] != oracles.oracle_is_loose(a, b, want_vertices, n):
            return f"loose flag of edge {list(a)}-{list(b)} differs from the oracle"
    return None
