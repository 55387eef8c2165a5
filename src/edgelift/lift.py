"""Edge restrictions, the graded cofactor solver, and the lifting loop.

Given a loose edge E of the Newton polyhedron of f and a factorization of the
restriction f|_E into coprime parts G, H (with G not divisible by any
variable), the residual-driven loop recovers g, h with f = g*h up to a weight
N in the edge's own weights: at each step the minimal-weight part of the
residual f - g*h is split as G*h' + H*g' by one exact linear solve inside the
graded pieces, and the factors are extended by h', g'.  The minimal residual
weight strictly increases, so the loop terminates within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from . import newton
from .coeffs import RESIDUE_RING
from .grading import WeightSystem, orthogonal_basis
from .linalg import _apply_elimination, _eliminate_field
from .poly import (SparsePoly, WeightedBound, deglex_key, exp_add, exp_min, exp_neg,
                   exp_sub, primitive_vector)
from .unifactor import degree, factor_univariate, pgcd, pmul, ppow, trim
# Unused here, but perfbench/tracing.py patches this name in this module;
# without it its --trace 1 does not install.
from .linalg import solve_field  # noqa: F401


class LiftError(ValueError):
    pass


class EmptyFace(LiftError):
    """Restriction to an empty face, or one that vanishes mod p."""


class NotEdgeHomogeneous(LiftError):
    """Support points do not lie on a line parallel to the edge."""


class NotLoose(LiftError):
    """The chosen edge is not loose."""


class Unsolvable(LiftError):
    """A cofactor system had no solution; the split hypotheses are violated."""


NOT_COPRIME = "NotCoprime"
DIVISIBLE_BY_VARIABLE = "DivisibleByVariable"
PRODUCT_MISMATCH = "ProductMismatch"


class InvalidSplit(LiftError):
    """The requested split violates a hypothesis of the lifting step."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"invalid split: {reason}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class SplitRequest:
    """A factorization f|_E = G * H to be lifted."""

    G: SparsePoly
    H: SparsePoly


@dataclass(frozen=True)
class EdgeRestriction:
    """Restriction of f to a compact edge, over the residue field, together
    with its line data: the weight system of the edge direction, the content
    monomial m and the univariate form p(t) with

        poly = x^m * p(t)   at t = x^direction,   p(0) != 0.
    """

    poly: SparsePoly
    edge: newton.Edge
    ws: WeightSystem
    content: tuple
    univariate: tuple


@dataclass(frozen=True)
class EdgePrimePower:
    """Certificate that the restriction of f to ``edge`` is unit * F^power.

    The restriction's monomial content is always trivial (a nontrivial one
    gives a coprime split), so F is irreducible."""

    edge: newton.Edge
    factor: SparsePoly
    power: int
    unit: object


@dataclass
class LiftStep:
    """One step of the lifting loop.

    In ``factor`` and ``weierstrass`` reports ``weight`` is the residual's
    least weight minus w + z, and ``slice_dims`` counts the h'- and
    g'-columns of the step's cofactor system.  In ``padic`` reports
    ``weight`` is the least weight itself and ``slice_dims`` counts the
    nonzero terms of the solved h' and g' (``solved``).  The two meanings
    differ only so that the reports stay what they were.
    """

    weight: tuple
    slice_dims: tuple
    residual_before: int
    residual_after: int | None = None
    solved: tuple = ()

    def to_dict(self):
        return {
            "weight": list(self.weight),
            "slice_dims": list(self.slice_dims),
            "residual_before": self.residual_before,
            "residual_after": self.residual_after,
        }


@dataclass
class LiftCertificate:
    w: tuple
    z: tuple
    bound: int
    steps: list = field(default_factory=list)
    exit_min_weight: int | None = None

    def to_dict(self):
        return {
            "w": list(self.w),
            "z": list(self.z),
            "bound": self.bound,
            "steps": [s.to_dict() for s in self.steps],
            "exit_min_weight": self.exit_min_weight,
        }


# -- restrictions --------------------------------------------------------------

def restrict(f, face):
    """Terms of f supported on a compact face, coefficients mapped to the
    residue field (identity over Q and F_p, mod p for Z/p^k)."""
    face_set = {tuple(p) for p in face}
    if not face_set:
        raise EmptyFace("restriction to an empty face")
    K = f.ring.residue_field()
    out = f.restrict_to(face_set).map_coefficients(K, f.ring.to_residue)
    return out


def edge_restriction(f, edge):
    """Build the EdgeRestriction of f along a compact edge.

    The terms of f on the segment are picked by their step count from
    edge.a, without enumerating the segment's lattice points."""
    length = _ratio(exp_sub(edge.b, edge.a), edge.direction)
    on_edge = []
    for point in f.terms:
        t = _ratio(exp_sub(point, edge.a), edge.direction)
        if t is not None and 0 <= t <= length:
            on_edge.append(point)
    poly = restrict(f, on_edge)
    if not poly:
        raise EmptyFace("edge restriction vanishes in the residue field")
    ws = orthogonal_basis(edge.direction)
    content, uni = _line_form(poly, edge.direction)
    return EdgeRestriction(poly, edge, ws, content, tuple(uni))


def _line_form(poly, direction):
    """Write an edge-homogeneous polynomial as x^content * p(x^direction)."""
    support = poly.support()
    base = support[0]
    steps = {}
    for point in support:
        diff = exp_sub(point, base)
        t = _ratio(diff, direction)
        if t is None:
            raise NotEdgeHomogeneous(f"{point} is off the line through {base}")
        steps[t] = poly.terms[point]
    ring = poly.ring
    uni = [ring.zero()] * (max(steps) + 1)
    for t, c in steps.items():
        uni[t] = c
    return base, trim(uni, ring)


def _ratio(diff, direction):
    """diff = t * direction for an integer t, or None."""
    t = None
    for x, d in zip(diff, direction):
        if d == 0:
            if x != 0:
                return None
            continue
        if x % d:
            return None
        q = x // d
        if t is None:
            t = q
        elif q != t:
            return None
    return 0 if t is None else t


def edge_poly_from_univariate(ring, nvars, direction, coeffs, anchor=None):
    """x^anchor * sum coeffs[i] x^(i*direction); the default anchor makes the
    componentwise minimum of the support zero."""
    coeffs = trim(list(coeffs), ring)
    if not coeffs:
        return SparsePoly.zero(nvars, ring)
    deg = degree(coeffs)
    if anchor is None:
        anchor = tuple(deg * max(0, -d) for d in direction)
    terms = {}
    for i, c in enumerate(coeffs):
        if ring.is_zero(c):
            continue
        exponent = tuple(a + i * d for a, d in zip(anchor, direction))
        terms[exponent] = c
    return SparsePoly(nvars, ring, terms)


# -- coprimality ----------------------------------------------------------------

def coprime_check(G, H):
    """True iff the monomial contents are coprime and the univariate forms
    have trivial gcd.  Both inputs must be edge-homogeneous: supports on lines
    parallel to a common direction."""
    if not G or not H:
        raise NotEdgeHomogeneous("zero polynomial is not edge-homogeneous")
    cG, uG, dG = _content_line(G)
    cH, uH, dH = _content_line(H)
    if dG is not None and dH is not None and dG != dH:
        raise NotEdgeHomogeneous("supports lie on non-parallel lines")
    if any(min(a, b) > 0 for a, b in zip(cG, cH)):
        return False
    ring = G.ring
    g = pgcd(list(uG), list(uH), ring)
    return degree(g) == 0


def _content_line(P):
    """(monomial content, univariate coefficients, canonical direction).

    The content is the componentwise minimum over the support; the univariate
    coefficients are anchored at the degree-lex smallest support point, which
    orients all lines parallel to a direction consistently.
    """
    support = P.support()
    content = _content(P)
    if len(support) == 1:
        return content, [P.terms[support[0]]], None
    direction = primitive_vector(exp_sub(support[-1], support[0]))
    _, uni = _line_form(P, direction)
    return content, uni, direction


def _content(P):
    """The monomial content: the componentwise minimum over the support."""
    return reduce(exp_min, P.support())


# -- cofactor solver --------------------------------------------------------------

def _uniform_weight(P, ws):
    weights = {ws.weight(e) for e in P.terms}
    if len(weights) != 1:
        raise NotEdgeHomogeneous("polynomial is not weight-homogeneous")
    return weights.pop()


def _cofactor_slices(G, H, r, ws, wr, caps=(None, None)):
    """h'-columns and g'-columns of the cofactor system at r's weight.

    The weight map is additive, so for a term p of r and terms alpha of G,
    beta of H, the column slices are anchored at points they contain:
    p - alpha for h' and p - beta for g'.  The caps bound their last
    coordinates."""
    p = next(iter(r.terms))
    alpha = next(iter(G.terms))
    beta = next(iter(H.terms))
    h_cap, g_cap = caps
    h_pts = ws.slice(exp_sub(wr, ws.weight(alpha)), exp_sub(p, alpha), h_cap).points
    g_pts = ws.slice(exp_sub(wr, ws.weight(beta)), exp_sub(p, beta), g_cap).points
    return h_pts, g_pts


def solve_cofactor(G, H, r, ws, max_last_exp=None):
    """Solve G*h' + H*g' = r inside the graded pieces.

    Unknowns are the coefficients of h' and g' on the lattice bases of their
    slices; equations are indexed by the points the columns reach, and a
    term of r that no column reaches makes the system inconsistent.  Columns
    are ordered h'-block then g'-block, each in slice order (steps along the
    edge direction), and the first valid pivot in that order is taken, so
    the solution with all free coordinates zero is deterministic.  ``max_last_exp`` optionally caps the
    last-variable exponent of the slice bases as a (h_cap, g_cap) pair.
    Raises Unsolvable when the system is inconsistent, which signals a
    violated hypothesis (or too tight a cap).
    """
    ring = r.ring
    if G.ring != ring or H.ring != ring:
        raise InvalidSplit(PRODUCT_MISMATCH, "split and residual rings differ")
    if not r:
        zero = SparsePoly.zero(r.nvars, ring)
        return zero, zero
    _uniform_weight(G, ws)  # G and H must be weight-homogeneous too
    _uniform_weight(H, ws)
    wr = _uniform_weight(r, ws)
    slices = _cofactor_slices(G, H, r, ws, wr, max_last_exp or (None, None))
    return _solve_in_slices(G, H, r, wr, *slices, {})


def _solve_in_slices(G, H, r, wr, h_pts, g_pts, systems):
    """The cofactor solve of solve_cofactor on already enumerated columns.

    The rows are the points the columns reach: every other point of r's
    slice gives an all-zero row, and with free variables set to zero the
    solution depends only on the column order.  The matrix depends only on
    G, H and the column points up to a common translation, so ``systems``
    maps the translated columns to their row-index map and elimination, and
    a lift that keeps it across its steps eliminates each shape once."""
    ring = r.ring
    nvars = r.nvars
    solution = None
    if h_pts or g_pts:
        origin = (h_pts or g_pts)[0]
        shape = (tuple(exp_sub(p, origin) for p in h_pts),
                 tuple(exp_sub(p, origin) for p in g_pts))
        system = systems.get(shape)
        if system is None:
            system = systems[shape] = _cofactor_system(G, H, *shape)
        rows, elimination = system
        rhs = []
        for point, c in r.terms.items():
            i = rows.get(exp_sub(point, origin))
            if i is None:
                break
            rhs.append((i, c))
        else:
            solution = _apply_elimination(ring, elimination, rhs)
    if solution is None:
        raise Unsolvable(f"no cofactor solution at weight {wr}")
    h_part = SparsePoly(nvars, ring,
                        {p: c for p, c in zip(h_pts, solution[:len(h_pts)])})
    g_part = SparsePoly(nvars, ring,
                        {p: c for p, c in zip(g_pts, solution[len(h_pts):])})
    return h_part, g_part


def _cofactor_system(G, H, h_pts, g_pts):
    """Row-index map and elimination of the cofactor matrix on these columns:
    column (F, point) holds F's coefficients at the rows e + point."""
    ring = G.ring
    columns = [(G, point) for point in h_pts] + [(H, point) for point in g_pts]
    rows = {}
    entries = [(rows.setdefault(exp_add(e, point), len(rows)), col, c)
               for col, (factor, point) in enumerate(columns)
               for e, c in factor.terms.items()]
    matrix = [[ring.zero()] * len(columns) for _ in rows]
    for i, col, c in entries:
        matrix[i][col] = c
    return rows, _eliminate_field(ring, matrix)


# -- the lifting loop -------------------------------------------------------------

def _to_residue_poly(f):
    if f.ring.kind != RESIDUE_RING:
        return f
    return f.map_coefficients(f.ring.residue_field(), f.ring.to_residue)


def _lift_from_residue(P, ring):
    if P.ring == ring:
        return P
    return SparsePoly(P.nvars, ring, P.terms)


def _run_lift(f, ws, G, H, N, view=_to_residue_poly, embed=_lift_from_residue,
              caps=(None, None)):
    """The residual-driven loop behind the plain, monic and p-adic lifts.

    The residual f - g*h, truncated at weight ``N`` in the edge's own
    weights ws.xi0 (None: not truncated), is formed once and then updated by
    the two products each correction adds.
    ``view`` maps it to the graded residue-field polynomial the steps clear
    (mod p over Z/p^k, the identity over a field, the plane model for
    ``padic``), and ``embed(P, f.ring)`` carries a residue-field solution
    back into f's ring.  ``caps`` bounds the last coordinates of every
    step's (h', g') columns; a step inconsistent within them is Unsolvable.
    G and H are fixed, so a system eliminated once serves every later step
    with the same columns up to translation; nothing is kept past the call.
    """
    ring = f.ring
    w = _uniform_weight(G, ws)
    z = _uniform_weight(H, ws)
    g, h = embed(G, ring), embed(H, ring)
    bound = None if N is None else WeightedBound(ws.xi0, N)
    cert = LiftCertificate(w, z, N)
    previous = None
    systems = {}
    residual = (f - g.mul(h, bound)).truncate(bound)
    while True:
        visible = view(residual)
        weights = {e: ws.weight(e) for e in visible.terms}
        # deglex_key orders by the sum first, and the weights sum to <xi0, e>.
        wmin = min(weights.values(), key=deglex_key, default=None)
        if cert.steps:
            cert.steps[-1].residual_after = None if wmin is None else sum(wmin)
        if wmin is None:
            break
        key = deglex_key(wmin)
        if previous is not None and key <= previous:
            raise Unsolvable(f"residual weight did not increase at {wmin}")
        previous = key
        step = exp_sub(wmin, exp_add(w, z))
        if any(x < 0 for x in step):
            raise Unsolvable(f"residual weight {wmin} below the initial weight")
        initial = visible.restrict_to([e for e, we in weights.items() if we == wmin])
        h_pts, g_pts = _cofactor_slices(G, H, initial, ws, wmin, caps)
        h_part, g_part = _solve_in_slices(G, H, initial, wmin, h_pts, g_pts, systems)
        cert.steps.append(LiftStep(step, (len(h_pts), len(g_pts)), sum(wmin),
                                   solved=(len(h_part), len(g_part))))
        g_part = embed(g_part, ring)
        h_part = embed(h_part, ring)
        # (g + g')(h + h') - g*h = g'*(h + h') + g*h'
        h = h + h_part
        residual = residual - g_part.mul(h, bound) - g.mul(h_part, bound)
        g = g + g_part
    remainder = view(f - g * h)
    cert.exit_min_weight = remainder.min_weighted_degree(ws.xi0)
    return g, h, cert


def _validate_split(split, restriction):
    """The split checks shared by the plain and monic lifts: G and H nonzero
    over the residue field, G*H equal to the edge restriction, and coprime."""
    G, H = split.G, split.H
    if not G or not H:
        raise InvalidSplit(PRODUCT_MISMATCH, "split parts must be nonzero")
    if G.ring != restriction.ring or H.ring != restriction.ring:
        raise InvalidSplit(PRODUCT_MISMATCH, "split must live over the residue field")
    if G * H != restriction:
        raise InvalidSplit(PRODUCT_MISMATCH, "G*H differs from the edge restriction")
    if not coprime_check(G, H):
        raise InvalidSplit(NOT_COPRIME, "G and H share a factor")


def lift_factorization(f, edge, split, N):
    """Lift f|_E = G*H to f = g*h up to weight N in the edge's weights xi0.

    Requires: the edge loose, G*H equal to the restriction, G not divisible
    by any variable, G and H coprime.  Returns (g, h, certificate).
    """
    if not f:
        raise LiftError("cannot factor the zero polynomial")
    if not edge.loose:
        raise NotLoose(f"edge {edge.a}-{edge.b} is not loose")
    rest = edge_restriction(f, edge)
    _validate_split(split, rest.poly)
    if any(_content(split.G)):
        raise InvalidSplit(DIVISIBLE_BY_VARIABLE, "G is divisible by a variable")
    return _run_lift(f, rest.ws, split.G, split.H, N)


# -- irreducibility-witness logic -------------------------------------------------

def _first_split(f, edges, monic_last=False):
    """The first of ``edges`` whose restriction of f has a coprime split.

    Returns (restriction, SplitRequest) for the first such edge, or
    (restriction, EdgePrimePower) for the first edge when none has one.
    ``edges`` must be nonempty; ``monic_last`` is passed to
    _split_from_restriction.
    """
    first = None
    for edge in edges:
        rest = edge_restriction(f, edge)
        split = _split_from_restriction(rest, monic_last)
        if isinstance(split, SplitRequest):
            return rest, split
        if first is None:
            first = rest, split
    return first


def _split_from_restriction(rest, monic_last=False):
    """Choose a coprime split of an edge restriction, or report prime-power
    structure.

    Returns either a SplitRequest or an EdgePrimePower.  The canonical split
    pulls the monomial content into H; the factored split puts the first
    irreducible class into G and everything else into H.  With
    ``monic_last`` the factored split is preferred whenever there are two
    classes, and G is normalized to be monic in the last variable (its top
    term must be free of the other variables, which holds on descendant edges).
    """
    poly = rest.poly
    ring = poly.ring
    nvars = poly.nvars
    content = _content(poly)
    classes = None
    if monic_last or not any(content):
        unit, classes = factor_univariate(ring, list(rest.univariate))

    if classes is not None and len(classes) >= 2:
        first, mult = classes[0]
        h_uni = [unit]
        for other, m in classes[1:]:
            h_uni = pmul(h_uni, ppow(list(other), m, ring), ring)
        direction = rest.edge.direction
        G = edge_poly_from_univariate(ring, nvars, direction, ppow(list(first), mult, ring))
        H = edge_poly_from_univariate(ring, nvars, direction, h_uni).mul_monomial(content)
    elif any(content):
        G = poly.mul_monomial(exp_neg(content))
        H = SparsePoly.monomial(nvars, ring, content)
    else:
        return _prime_power(rest, *classes[0])

    if monic_last:
        G, H = _normalize_monic_last(G, H)
    assert G * H == poly
    return SplitRequest(G, H)


def _top_in_last(G):
    """(d, c) with d the degree of G in the last variable and c the
    coefficient of the bare monomial y^d when that is G's only term of
    degree d; c is None otherwise."""
    d = max(e[-1] for e in G.terms)
    tops = [e for e in G.terms if e[-1] == d]
    if len(tops) != 1 or any(tops[0][:-1]):
        return d, None
    return d, G.terms[tops[0]]


def _normalize_monic_last(G, H):
    """Scale G so its top term in the last variable is the bare monomial."""
    ring = G.ring
    lam = _top_in_last(G)[1]
    if lam is None:
        raise InvalidSplit(PRODUCT_MISMATCH,
                           "split part cannot be normalized to be monic in the last variable")
    if lam == ring.one():
        return G, H
    return G.scale(ring.invert(lam)), H.scale(lam)


def _prime_power(rest, base, mult):
    """The EdgePrimePower certificate rest.poly = unit * F^mult, where F is the
    edge polynomial of the univariate class ``base``, scaled to 1 at its
    degree-lex smallest term.  The restriction must have trivial content."""
    poly = rest.poly
    ring = poly.ring
    F = edge_poly_from_univariate(ring, poly.nvars, rest.edge.direction, base)
    F = F.scale(ring.invert(F.terms[F.support()[0]]))
    power = F.pow(mult)
    pt = power.support()[0]
    unit_scalar = ring.div(poly.terms[pt], power.terms[pt])
    assert power.scale(unit_scalar) == poly
    return EdgePrimePower(rest.edge, F, mult, unit_scalar)


@dataclass(frozen=True)
class ReducibleWithFactors:
    g: SparsePoly
    h: SparsePoly
    certificate: LiftCertificate
    edge: newton.Edge


@dataclass(frozen=True)
class NoLooseEdge:
    pass


def reducibility_witness(f, N):
    """Decide reducibility through the loose edges of Delta(f).

    The loose edges are tried in order: when the restriction has a nontrivial
    monomial content the canonical split pulls it out; otherwise the edge
    univariate is factored and a coprime grouping is taken.  The first edge
    with a split is lifted up to weight N in its own weights xi0.  When no
    edge offers a coprime split the first prime-power certificate is reported.
    """
    if not f:
        raise LiftError("cannot analyze the zero polynomial")
    np = newton.build(f)
    loose = [e for e in np.edges if e.loose]
    if not loose:
        return NoLooseEdge()
    rest, chosen = _first_split(f, loose)
    if isinstance(chosen, EdgePrimePower):
        return chosen
    g, h, cert = lift_factorization(f, rest.edge, chosen, N)
    return ReducibleWithFactors(g, h, cert, rest.edge)
