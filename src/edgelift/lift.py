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

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from itertools import islice

from . import newton
from .grading import WeightSystem, line_interval, orthogonal_basis
from .linalg import _apply_elimination, _eliminate_field
from .poly import (SparsePoly, WeightedBound, deglex_key, exp_add, exp_dot, exp_min,
                   exp_neg, exp_scale, exp_sub, primitive_vector)
from .unifactor import degree, factor_univariate, pgcd, pmul, ppow, trim
# Unused here, but perfbench/tracing.py patches this name in this module;
# without it its --trace 1 does not install.
from .linalg import solve_field  # noqa: F401


class LiftError(ValueError):
    pass


class EmptyFace(LiftError):
    """Restriction to an empty face, or one that is zero or one term mod p."""


class NotEdgeHomogeneous(LiftError):
    """Support points do not lie on a line parallel to the edge."""


class NotLoose(LiftError):
    """The chosen edge is not loose."""


class NotDescendant(LiftError):
    """The chosen edge has no orientation with nonnegative x-part and
    negative y-part."""


class Unsolvable(LiftError):
    """A cofactor system had no solution; the split hypotheses are violated."""


NOT_COPRIME = "NotCoprime"
DIVISIBLE_BY_VARIABLE = "DivisibleByVariable"
PRODUCT_MISMATCH = "ProductMismatch"
UNIT_PART = "UnitPart"


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
    """One step of the lifting loop: ``weight`` is the residual's least
    weight minus w + z, and ``slice_dims`` counts the h'- and g'-columns of
    the step's cofactor system, within the lift's caps."""

    weight: tuple
    slice_dims: tuple
    residual_before: int
    residual_after: int | None = None

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
    return SparsePoly(nvars, ring, {exp_add(anchor, exp_scale(direction, i)): c
                                    for i, c in enumerate(coeffs) if not ring.is_zero(c)})


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
    if any(exp_min(cG, cH)):
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


def _step_solver(G, H, w, ws, caps=(None, None), embed=None):
    """The cofactor solve of one split G, H, with G of weight w: a function
    solve(terms, p, wh) that solves G*h' + H*g' = the (point, coefficient)
    pairs ``terms``, of weight wh + w with p among their points, for h' of
    weight wh.  It returns the nonzero terms of h' and g' as (point,
    coefficient) lists, each term mapped through ``embed`` when given,
    together with the counts of h'- and g'-columns.

    The weight map is additive, so for terms alpha of G and beta of H the
    column slices are the lattice points of the lines through p - alpha
    (h') and p - beta (g') in the nonnegative orthant, the caps bounding
    their last coordinates.  The h'-slice comes from WeightSystem.slice,
    which checks the anchor's weight; the g'-line is known by its point p -
    beta, so its interval is read off directly.

    The rows are the points the columns reach: every other point of the
    right-hand side's slice gives an all-zero row, and with free variables
    set to zero the solution depends only on the column order.  Relative to
    the first column, the h'-columns are i*d and the g'-columns offset + i*d
    for the edge direction d, so the matrix depends only on G, H and
    (len_h, len_g, offset).  The lines are parallel, so the offset is known
    by its coordinate k, one in which d moves: the solver keeps the system
    of each (len_h, len_g, offset[k]), its row-index map, column points and
    elimination, and the steps of a lift, which share one solver, eliminate
    each system once.  The terms, like the rows, lie on one line, where a
    point is known by its coordinate k: the rows are indexed by it."""
    ring = G.ring
    alpha = next(iter(G.terms))
    beta = next(iter(H.terms))
    direction = ws.direction
    k = next(i for i, d in enumerate(direction) if d)
    h_cap, g_cap = caps
    systems = {}

    def solve(terms, p, wh):
        _, h_first, len_h, _ = ws.slice(wh, exp_sub(p, alpha), h_cap)
        g_first, len_g = line_interval(exp_sub(p, beta), direction, g_cap)
        if not (len_h or len_g):
            raise Unsolvable(f"no cofactor solution at weight {exp_add(wh, w)}")
        origin = h_first if len_h else g_first
        start = origin[k]
        key = (len_h, len_g, g_first[k] - start if len_g else None)
        system = systems.get(key)
        if system is None:
            offset = exp_sub(g_first, origin) if len_g else None
            system = systems[key] = _cofactor_system(G, H, direction, k, len_h, len_g, offset)
        rows, columns, elimination = system
        rhs = []
        for point, c in terms:
            i = rows.get(point[k] - start)
            if i is None:
                raise Unsolvable(f"no cofactor solution at weight {exp_add(wh, w)}")
            rhs.append((i, c))
        solution = _apply_elimination(ring, elimination, rhs)
        if solution is None:
            raise Unsolvable(f"no cofactor solution at weight {exp_add(wh, w)}")
        parts = [], []   # h' from the first len_h columns, then g'
        for j, c in enumerate(solution):
            if c:
                point = exp_add(origin, columns[j])
                parts[j >= len_h].append((point, c) if embed is None else embed(point, c))
        return parts[0], parts[1], (len_h, len_g)
    return solve


def solve_cofactor(G, H, r, ws, caps=(None, None)):
    """Solve G*h' + H*g' = r inside the graded pieces.

    Unknowns are the coefficients of h' and g' on the lattice bases of their
    slices; equations are indexed by the points the columns reach, and a
    term of r that no column reaches makes the system inconsistent.  Columns
    are ordered h'-block then g'-block, each in slice order (steps along the
    edge direction), and the first valid pivot in that order is taken, so
    the solution with all free coordinates zero is deterministic.  ``caps``,
    a (h_cap, g_cap) pair, caps the last-variable exponent of the slices.
    Raises Unsolvable when the system is inconsistent, which signals a
    violated hypothesis (or too tight a cap).
    """
    ring = r.ring
    if G.ring != ring or H.ring != ring:
        raise InvalidSplit(PRODUCT_MISMATCH, "split and residual rings differ")
    if not r:
        zero = SparsePoly.zero(r.nvars, ring)
        return zero, zero
    w = _uniform_weight(G, ws)
    _uniform_weight(H, ws)   # raises unless H is weight-homogeneous too
    solve = _step_solver(G, H, w, ws, caps)
    h_part, g_part, _ = solve(r.terms.items(), next(iter(r.terms)),
                              exp_sub(_uniform_weight(r, ws), w))
    return SparsePoly(r.nvars, ring, h_part), SparsePoly(r.nvars, ring, g_part)


def _cofactor_system(G, H, direction, k, len_h, len_g, offset):
    """The row-index map by the k-th coordinate, the column points and the
    elimination of the cofactor matrix with the columns (G, i*direction)
    for i < len_h and (H, offset + i*direction) for i < len_g: column (F,
    point) holds F's coefficients at the rows e + point."""
    columns = ([exp_scale(direction, i) for i in range(len_h)]
               + [exp_add(offset, exp_scale(direction, i)) for i in range(len_g)])
    rows, matrix = {}, []
    for col, point in enumerate(columns):
        for e, c in (G if col < len_h else H).terms.items():
            i = rows.setdefault(e[k] + point[k], len(rows))
            if i == len(matrix):
                matrix.append([0] * len(columns))
            matrix[i][col] = c
    return rows, columns, _eliminate_field(G.ring, matrix)


# -- the lifting loop -------------------------------------------------------------

def _run_lift(f, ws, G, H, N, view=None, embed=None, caps=(None, None)):
    """The residual-driven loop behind the plain, monic and p-adic lifts.

    The residual f - g*h, truncated at weight ``N`` in the edge's own
    weights ws.xi0 (None: not truncated), is formed once; each step
    subtracts its two truncated products from it in place, and g, h and
    the step's solution are plain dicts and lists.  ``view(e, c)`` maps a
    residual term to the term the steps solve for: the identity when None,
    where f lives over the residue field of G and H (see
    _lift_over_residue_field), and the plane digit for ``padic``, which
    alone also passes ``embed(e, c)`` to carry a solved term back into f's
    ring.  The visible terms sit in buckets by weight under a heap of weight
    keys.

    g and h are kept as weight classes: G, H, and each step's g' and h', one
    class each and no lighter than any before, so a bounded lift pairs a
    step's parts only with the other factor's classes under N.  Without a
    view the weight map is additive: the buckets hold the residual itself, a
    product of two classes lands in one known bucket, and a step's
    G*h' + H*g' is exactly its own bucket, which the step drops instead of
    forming.  With a view the residual is one exponent -> coefficient dict,
    and the exponents a product touched are viewed and bucketed again.
    ``caps`` bounds the last coordinates of every step's (h', g') columns; a
    step inconsistent within them is Unsolvable.  A system eliminated once
    serves every later step with its key; nothing is kept past the call.
    A bounded lift's exit weight is read layer by layer (_exit_weight).
    """
    ring = f.ring
    modulus = ring.modulus   # None over Q, where nothing is reduced
    weight_rows = ws.weight_rows
    w = _uniform_weight(G, ws)
    z = _uniform_weight(H, ws)
    wz = exp_add(w, z)
    solve = _step_solver(G, H, w, ws, caps, embed)
    g, h = {}, {}
    # (xi0 weight, weight, exponents first added in the class), by weight
    g_classes, h_classes = [], []
    bound = None if N is None else WeightedBound(ws.xi0, N)
    cert = LiftCertificate(w, z, N)
    previous = None
    buckets = {}   # weight -> the residual's terms {e: c}, with a view {e: its visible term}
    keys = []      # heap of the deglex keys of the weights in buckets
    placed = {}    # with a view: residual exponent -> its bucket
    sums = {}      # e1 -> {e2: e1 + e2} with a view: padic's g' and h' reuse few exponents
    skip = 0 if view is not None else 1   # without a view, G*h' + H*g' is not formed

    def grow(terms, classes, added, weight):
        """terms += added, the class of weight ``weight``; an exponent stays
        once added, zero or not, so it sits in one class."""
        new = []
        for e, c in added:
            if e in terms:
                c += terms[e]
                terms[e] = c if modulus is None else c % modulus
            else:
                terms[e] = c
                new.append(e)
        if new:
            classes.append((sum(weight), weight, new))

    def multiply(delta, left, weight, classes, right):
        """delta += left * right, for left's terms of weight ``weight`` and
        right's classes after the skipped ones, up to N; delta maps the
        weight of a product class (None with a view) to its terms."""
        if not left:
            return
        targets, total = [], sum(weight)
        for total2, weight2, exps in islice(classes, skip, None):
            if bound is not None and total + total2 > N:
                break
            key = None if view is not None else exp_add(weight, weight2)
            out = delta.get(key)
            if out is None:
                out = delta[key] = {}
            targets.append((exps, out))
        for e1, c1 in left:
            row = {} if view is None else sums.get(e1)
            if row is None:
                row = sums[e1] = {}
            for exps, out in targets:
                for e2 in exps:
                    e = row.get(e2)
                    if e is None:
                        e = row[e2] = exp_add(e1, e2)
                    out[e] = out.get(e, 0) + c1 * right[e2]

    def bucket_at(weight):
        bucket = buckets.get(weight)
        if bucket is None:  # the key's first entry is the sum <xi0, e>
            bucket = buckets[weight] = {}
            heappush(keys, deglex_key(weight))
        return bucket

    def place(delta):
        """residual -= delta: the terms delta files under each weight, and
        under None the terms to view and weigh one by one."""
        for weight, terms in delta.items():
            if weight is not None:   # no view: the bucket is the residual's class
                bucket = bucket_at(weight)
                for e, c in terms.items():
                    c = bucket.get(e, 0) - c
                    if modulus is not None:
                        c %= modulus
                    if c:
                        bucket[e] = c
                    else:
                        bucket.pop(e, None)
                continue
            for e, c in terms.items():
                bucket = placed.pop(e, None)
                if bucket is not None:
                    del bucket[e]
                c = residual.get(e, 0) - c
                if modulus is not None:
                    c %= modulus
                if not c:
                    residual.pop(e, None)
                    continue
                residual[e] = c
                seen, c = view(e, c)
                weight = tuple([exp_dot(v, seen) for v in weight_rows])
                bucket = buckets.get(weight)
                if bucket is None:
                    bucket = bucket_at(weight)
                bucket[e] = seen, c
                placed[e] = bucket

    def embedded(terms):
        """G's or H's terms as the loop keeps them, in f's ring."""
        if embed is None:
            return terms.items()
        return [embed(e, c) for e, c in terms.items()]

    grow(g, g_classes, embedded(G.terms), w)
    grow(h, h_classes, embedded(H.terms), z)
    start = SparsePoly(f.nvars, ring, g).mul(SparsePoly(f.nvars, ring, h), bound)
    residual = (f - start).truncate(bound).terms
    if view is None:
        for e, c in residual.items():
            bucket_at(ws.weight(e))[e] = c
    else:
        place({None: dict.fromkeys(residual, 0)})   # bucket the residual as it stands
    while True:
        while keys and not buckets[keys[0][1]]:
            del buckets[heappop(keys)[1]]
        wmin = keys[0][1] if keys else None
        if cert.steps:
            cert.steps[-1].residual_after = None if wmin is None else sum(wmin)
        if wmin is None:
            break
        if previous is not None and keys[0] <= previous:
            raise Unsolvable(f"residual weight did not increase at {wmin}")
        previous = keys[0]
        step = exp_sub(wmin, wz)
        if min(step) < 0:
            raise Unsolvable(f"residual weight {wmin} below the initial weight")
        # g' and h' weigh wmin - z and wmin - w, and
        # (g + g')(h + h') - g*h = g'*(h + h') + g*h'
        g_weight, h_weight = exp_sub(wmin, z), exp_sub(wmin, w)
        bucket = buckets[wmin]
        terms = bucket.items() if view is None else bucket.values()
        h_part, g_part, dims = solve(terms, next(iter(terms))[0], h_weight)
        cert.steps.append(LiftStep(step, dims, sum(wmin)))
        if view is None:   # G*h' + H*g' is the bucket: drop it, form the rest
            bucket.clear()
        grow(h, h_classes, h_part, h_weight)
        delta = {}
        multiply(delta, g_part, g_weight, h_classes, h)
        multiply(delta, h_part, h_weight, g_classes, g)
        grow(g, g_classes, g_part, g_weight)
        place(delta)
    if bound is not None:
        cert.exit_min_weight = _exit_weight(f, N, ws.xi0, ((g, g_classes), (h, h_classes)))
        return SparsePoly(f.nvars, ring, g), SparsePoly(f.nvars, ring, h), cert
    g, h = SparsePoly(f.nvars, ring, g), SparsePoly(f.nvars, ring, h)
    cert.exit_min_weight = min((exp_dot(ws.xi0, e if view is None else view(e, c)[0])
                                for e, c in (f - g * h).terms.items()), default=None)
    return g, h, cert


def _exit_weight(f, N, xi0, factors):
    """The least xi0 weight of a term of f - g*h above N, or None; ``factors``
    holds g's and h's terms, each with its weight classes as _run_lift keeps
    them.  The weights above N that a term of f or a pair of a g- and an
    h-class reaches are visited in increasing order, each found by a bisection
    per g-weight, and the layer of each is formed from f's terms of that
    weight and the pairs adding up to it, until one is nonzero."""
    by_factor = []   # per factor: xi0 weight -> its terms of that weight
    for terms, classes in factors:
        layers = {}
        for total, _, exps in classes:
            layers.setdefault(total, []).extend((e, terms[e]) for e in exps)
        by_factor.append(layers)
    g_layers, h_layers = by_factor
    h_weights = sorted(h_layers)
    f_layers = {}   # weight -> f's terms of that weight above N
    for e, c in f.terms.items():
        if exp_dot(xi0, e) > N:
            f_layers.setdefault(exp_dot(xi0, e), {})[e] = c
    weight = N
    while True:
        candidates = [x for x in f_layers if x > weight]
        for g_weight in g_layers:
            i = bisect_right(h_weights, weight - g_weight)
            if i < len(h_weights):
                candidates.append(g_weight + h_weights[i])
        if not candidates:
            return None
        weight = min(candidates)
        layer = f_layers.get(weight, {})
        for g_weight, g_terms in g_layers.items():
            for e2, c2 in h_layers.get(weight - g_weight, ()):
                for e1, c1 in g_terms:
                    e = exp_add(e1, e2)
                    layer[e] = layer.get(e, 0) - c1 * c2
        if any(map(f.ring.normalize, layer.values())):
            return weight


def _lift_over_residue_field(f, ws, split, N, caps=(None, None)):
    """_run_lift on f over the residue field (f mod p over Z/p^k), with the
    (h', g') column caps ``caps``; g and h come back into f's ring as
    canonical residues."""
    ring = f.ring
    K = ring.residue_field()
    g, h, cert = _run_lift(f.map_coefficients(K, ring.to_residue), ws, split.G, split.H, N,
                           caps=caps)
    return SparsePoly(f.nvars, ring, g.terms), SparsePoly(f.nvars, ring, h.terms), cert


def _require_edge(edge, descendant=False):
    """Raise NotLoose, or with ``descendant`` NotDescendant, unless a lift
    can use the edge."""
    if not edge.loose:
        raise NotLoose(f"edge {edge.a}-{edge.b} is not loose")
    if descendant and not edge.descendant:
        raise NotDescendant(f"edge {edge.a}-{edge.b} is not descendant")


def _validate_split(split, restriction):
    """The split checks shared by the plain and monic lifts: G and H
    nonzero over the residue field and nonconstant, G*H equal to the edge
    restriction, and coprime."""
    G, H = split.G, split.H
    if not G or not H:
        raise InvalidSplit(PRODUCT_MISMATCH, "split parts must be nonzero")
    constant = [(0,) * G.nvars]
    if list(G.terms) == constant or list(H.terms) == constant:
        raise InvalidSplit(UNIT_PART, "split parts must not be constants")
    if G.ring != restriction.ring or H.ring != restriction.ring:
        raise InvalidSplit(PRODUCT_MISMATCH, "split must live over the residue field")
    if G * H != restriction:
        raise InvalidSplit(PRODUCT_MISMATCH, "G*H differs from the edge restriction")
    if not coprime_check(G, H):
        raise InvalidSplit(NOT_COPRIME, "G and H share a factor")


def lift_factorization(f, rest, split, N):
    """Lift f|_E = G*H to f = g*h up to weight N in rest.ws.xi0, where rest
    is the EdgeRestriction of f to E (from _first_split or edge_restriction).

    Requires: the edge loose, G*H equal to the restriction, G not divisible
    by any variable, G and H coprime.  Returns (g, h, certificate).
    """
    if not f:
        raise LiftError("cannot factor the zero polynomial")
    _require_edge(rest.edge)
    _validate_split(split, rest.poly)
    if any(_content(split.G)):
        raise InvalidSplit(DIVISIBLE_BY_VARIABLE, "G is divisible by a variable")
    return _lift_over_residue_field(f, rest.ws, split, N)


# -- irreducibility-witness logic -------------------------------------------------

def _first_split(f, edges, split=None, monic_last=False):
    """The one edge chooser: the edge of ``edges`` to lift, and its split.

    Every edge must be loose, and with ``monic_last`` descendant; an edge
    whose restriction of f is zero or one term mod p is not an edge of f
    mod p and is skipped (EmptyFace when all are).  Returns (restriction,
    split) for the first edge whose restriction is G*H (InvalidSplit when
    none is), or without a split (restriction, SplitRequest) for the first
    edge with a coprime split, else (restriction, EdgePrimePower) for the
    first edge; ``monic_last`` is passed to _split_from_restriction.
    """
    for edge in edges:
        _require_edge(edge, monic_last)
    product = None if split is None else split.G * split.H
    first = None
    for edge in edges:
        try:
            rest = edge_restriction(f, edge)
        except EmptyFace:
            continue
        if len(rest.poly) < 2:
            continue
        if split is None:
            chosen = _split_from_restriction(rest, monic_last)
        else:
            chosen = split if rest.poly == product else None
        if isinstance(chosen, SplitRequest):
            return rest, chosen
        first = first or (rest, chosen)
    if first is None:
        raise EmptyFace("edge restriction vanishes or is a single term in the residue field")
    if split is not None:
        raise InvalidSplit(PRODUCT_MISMATCH, "G*H differs from every edge restriction")
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
    g, h, cert = lift_factorization(f, rest, chosen, N)
    return ReducibleWithFactors(g, h, cert, rest.edge)
