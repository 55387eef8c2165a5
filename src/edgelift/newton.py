"""Newton polyhedron geometry over exact rational arithmetic.

The polyhedron of a nonzero polynomial is the convex hull of its exponent
support plus the nonnegative orthant.  Vertices, compact edges and the
loose/descendant classification are all decided by exact rational LP
feasibility.  The vertex test is one LP with an equation per coordinate.  The
edge and looseness tests ask for a strictly positive xi on a cone
(_positive_xi), in whichever form has fewer rows: one row per vector, with
strict inequalities read as >= 1 (equivalent on rational homogeneous cones),
or Motzkin's alternative, one row per coordinate, once a polyhedron has more
than n + 2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lp import EQ, GE, LE, feasible_point
from .poly import deglex_key, exp_add, exp_dot, exp_neg, exp_scale, exp_sub, primitive_vector


class ZeroPolynomial(ValueError):
    """The zero polynomial has no Newton polyhedron."""


class NotAnEdge(ValueError):
    """The given segment is not a compact edge of the polyhedron."""


class DimensionMismatch(ValueError):
    """A vector has the wrong number of coordinates."""


@dataclass(frozen=True)
class Edge:
    """A compact edge with endpoints a, b (a the degree-lex smaller vertex),
    primitive direction (b - a)/gcd, and classification flags.

    ``descendant`` records whether some orientation of the direction has
    nonnegative entries except a negative last one; it is meaningful when the
    last variable is distinguished.
    """

    a: tuple
    b: tuple
    direction: tuple
    loose: bool
    descendant: bool

    def lattice_points(self):
        """All integer points on the segment, from a to b in direction steps."""
        steps = _lattice_length(self.a, self.b, self.direction)
        return [exp_add(self.a, exp_scale(self.direction, t)) for t in range(steps + 1)]

    def to_dict(self):
        return {
            "a": list(self.a),
            "b": list(self.b),
            "dir": list(self.direction),
            "loose": self.loose,
            "descendant": self.descendant,
        }


def _lattice_length(a, b, direction):
    for x, y, d in zip(a, b, direction):
        if d:
            return (y - x) // d
    raise ValueError("degenerate edge")


class NewtonPolyhedron:
    """Support set, vertices and compact edges of conv(support) + orthant."""

    __slots__ = ("nvars", "support", "vertices", "edges")

    def __init__(self, nvars, support, vertices, edges):
        self.nvars = nvars
        self.support = tuple(sorted(support, key=deglex_key))
        self.vertices = tuple(sorted(vertices, key=deglex_key))
        self.edges = tuple(edges)

    def edge_between(self, a, b):
        a, b = tuple(a), tuple(b)
        for e in self.edges:
            if {e.a, e.b} == {a, b}:
                return e
        raise NotAnEdge(f"{a}-{b} is not a compact edge")


def build(f):
    """Newton polyhedron of a nonzero polynomial."""
    if not f:
        raise ZeroPolynomial("the zero polynomial has no Newton polyhedron")
    support = f.support()
    for point in support:
        if any(x < 0 for x in point):
            raise ValueError("polyhedron support must be nonnegative")
    return build_from_support(support, f.nvars)


def build_from_support(support, nvars):
    support = [tuple(p) for p in support]
    vertices = [s for s in support if _is_vertex(s, support, nvars)]
    vertices.sort(key=deglex_key)
    edges = []
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if not _edge_feasible(a, b, vertices, nvars):
                continue
            direction = primitive_vector(exp_sub(b, a))
            loose = _edge_is_loose(a, b, vertices, nvars)
            edges.append(Edge(a, b, direction, loose, _descendant_flag(direction)))
    edges.sort(key=lambda e: (e.a, e.b))
    return NewtonPolyhedron(nvars, support, vertices, tuple(edges))


def _is_vertex(s, support, nvars):
    """s is a vertex iff it is not a convex combination of the other support
    points plus a nonnegative vector."""
    others = [u for u in support if u != s]
    if not others:
        return True
    # Variables: lambda_u (one per other point) then z in R^n, all >= 0.
    m = len(others)
    rows = []
    for j in range(nvars):
        coeffs = [u[j] for u in others] + [1 if t == j else 0 for t in range(nvars)]
        rows.append((coeffs, EQ, s[j]))
    rows.append(([1] * m + [0] * nvars, EQ, 1))
    return feasible_point(m + nvars, rows) is None


def _positive_xi(eqs, ineqs, strict, nvars):
    """Is there an xi > 0 with <xi, e> = 0 for every e in eqs and <xi, u> > 0
    (when strict) or >= 0 for every u in ineqs?  One LP, in whichever of two
    forms has fewer rows; the row form on a tie."""
    if len(eqs) + len(ineqs) <= nvars + 1:
        # Row form: xi = eta + 1, eta >= 0; the cone is homogeneous, so ">" reads ">= 1".
        rows = [(list(e), EQ, -sum(e)) for e in eqs]
        rows += [(list(u), GE, strict - sum(u)) for u in ineqs]
        return feasible_point(nvars, rows) is not None
    # Column form, Motzkin's alternative: no such xi iff some mu >= 0 on ineqs
    # and free q = q+ - q- on eqs make s = sum mu*u + sum q*e satisfy s <= 0
    # and -sum(s) + [strict]*sum(mu) = 1.  One row per coordinate.
    cols = ([(u, strict) for u in ineqs] + [(e, 0) for e in eqs]
            + [(exp_neg(e), 0) for e in eqs])
    rows = [([c[j] for c, _ in cols], LE, 0) for j in range(nvars)]
    rows.append(([s - sum(c) for c, s in cols], EQ, 1))
    return feasible_point(len(cols), rows) is None


def _edge_feasible(a, b, vertices, nvars):
    """Is [a, b] a compact edge?  Some xi > 0 vanishes on b - a and is
    strictly positive on u - a for every other vertex u."""
    others = [exp_sub(u, a) for u in vertices if u not in (a, b)]
    return _positive_xi([exp_sub(b, a)], others, True, nvars)


def _edge_is_loose(a, b, vertices, nvars):
    """A compact edge is loose iff no compact face of dimension >= 2 contains
    it; such a face must contain a third vertex v, so ask, for each v, for an
    xi > 0 that vanishes on b - a and v - a and is nonnegative on u - a for
    every other vertex u."""
    d = exp_sub(b, a)
    others = [exp_sub(u, a) for u in vertices if u not in (a, b)]
    return not any(_positive_xi([d, w], others[:i] + others[i + 1:], False, nvars)
                   for i, w in enumerate(others))


def _descendant_flag(direction):
    """True when some orientation has nonnegative entries except a strictly
    negative last one."""
    for c in (direction, exp_neg(direction)):
        if c[-1] < 0 and all(x >= 0 for x in c[:-1]):
            return True
    return False


def face_of(np, xi):
    """The face exposed by xi >= 0: the subset of the support minimizing
    <xi, .>, together with its compactness flag (xi strictly positive)."""
    if len(xi) != np.nvars:
        raise DimensionMismatch(f"expected {np.nvars} coordinates")
    xi = [Fraction(x) for x in xi]
    if any(x < 0 for x in xi):
        raise ValueError("face vectors must be nonnegative")
    if all(x == 0 for x in xi):
        raise ValueError("face vector must be nonzero")
    values = [(exp_dot(xi, point), point) for point in np.support]
    best = min(v for v, _ in values)
    face = tuple(p for v, p in values if v == best)
    return face, all(x > 0 for x in xi)


def is_loose(np, edge):
    """Recompute the looseness test for a compact edge of np."""
    found = np.edge_between(edge.a, edge.b)
    return _edge_is_loose(found.a, found.b, np.vertices, np.nvars)


def is_polygonal(np):
    """True iff every compact edge is loose (vacuously true without edges)."""
    return all(e.loose for e in np.edges)


def minkowski(np_a, np_b):
    """Polyhedron of the support sum; Newton polyhedra add under products."""
    if np_a.nvars != np_b.nvars:
        raise DimensionMismatch("operands have different dimensions")
    points = {exp_add(p, q) for p in np_a.support for q in np_b.support}
    return build_from_support(points, np_a.nvars)
