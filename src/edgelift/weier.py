"""The monic pipeline: descendant loose edges for polynomials in a
distinguished last variable y, monic lifting, Weierstrass normalization,
polynomial division, and the p-adic Newton-polygon specialization.

For the p-adic case, a polynomial over Z/p^k is modeled by the plane support
points (v_p(a_j), j).  The monic lift runs the bounded graded loop of
``lift``; the p-adic lift has a loop of its own on dense coefficient lists
in y, and both loops solve their steps with the one step solver of
``lift``.  All p-adic cofactor solves happen over F_p in the plane; the
factors carry Z/p^k coefficients via canonical-residue representatives,
and a coefficient lambda at the point (v, j) lifts to
int(lambda) * p^v * y^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import newton
from .coeffs import is_prime, prime_field, residue_ring
from .lift import (EdgePrimePower, LiftCertificate, LiftError, LiftStep, Unsolvable,
                   _first_split, _lift_over_residue_field, _require_edge, _step_solver,
                   _top_in_last, _uniform_weight, _validate_split)
from .lift import NotDescendant  # noqa: F401  (raised by the monic lift; re-exported)
from .poly import SparsePoly, WeightedBound
from .unifactor import trim
# Unused here, but perfbench/tracing.py patches these names in this module;
# without them its --trace 1 does not install.
from .grading import orthogonal_basis  # noqa: F401
from .lift import edge_restriction, solve_cofactor  # noqa: F401
from .unifactor import pmul  # noqa: F401


class NotMonic(LiftError):
    """The split part G (or the divisor) is not monic in the last variable."""


class NotPrepared(LiftError):
    """The series does not satisfy the preparation hypothesis at x = 0."""


@dataclass(frozen=True)
class WeierstrassInput:
    """A polynomial whose last variable is the distinguished y."""

    f: SparsePoly

    def __post_init__(self):
        if not self.f:
            raise ValueError("need a nonzero polynomial")
        if self.f.nvars < 2:
            raise ValueError("need at least one x variable besides y")


def descendant_loose_edges(wi):
    """Loose compact edges with an orientation that has nonnegative x-entries
    and a negative y-entry, in the deterministic edge order."""
    np = newton.build(wi.f)
    return [e for e in np.edges if e.loose and e.descendant]


def lift_monic(wi, rest, split, N):
    """The lifting loop under the monic hypothesis, up to weight N in
    rest.ws.xi0 (rest as for lift_factorization): the edge must be loose and
    descendant and G monic in y; G need not avoid variable factors.

    Every step keeps deg_y g' < d = deg_y G: a step's solution is fixed only
    up to (g' - t*G, h' + t*H), and the cap is the Hensel step's choice of
    t.  So g is G plus terms heavier than wt(G), none a bare y^j (which
    weighs less for j < d): g is a Weierstrass polynomial, g(0, y) = y^d,
    and h its cofactor.
    """
    f = wi.f
    _require_edge(rest.edge, descendant=True)
    _validate_split(split, rest.poly)
    d, top = _top_in_last(split.G)
    if top != split.G.ring.one():
        raise NotMonic("G must be monic in the last variable")
    g, h, cert = _lift_over_residue_field(f, rest.ws, split, N, (None, d - 1))
    assert {e: c for e, c in g.terms.items() if not any(e[:-1])} == {
        (0,) * (f.nvars - 1) + (d,): f.ring.one()}, "g(0, y) is not y^d"
    return g, h, cert


# -- Weierstrass preparation -----------------------------------------------------

def _y_below(nvars, d):
    """Cap that keeps y-degree < d."""
    return WeightedBound((0,) * (nvars - 1) + (1,), d - 1)


def _x_parts(f):
    """Group terms by total x-degree; values are SparsePoly slices."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(sum(e[:-1]), {})[e] = c
    return {m: SparsePoly(f.nvars, f.ring, terms) for m, terms in buckets.items()}


def _y_split(P, d):
    """P = low + y^d * high with deg_y(low) < d; returns (low, high)."""
    nvars = P.nvars
    low, high = {}, {}
    for e, c in P.terms.items():
        if e[-1] < d:
            low[e] = c
        else:
            high[e[:-1] + (e[-1] - d,)] = c
    ring = P.ring
    return SparsePoly(nvars, ring, low), SparsePoly(nvars, ring, high)


def _series_inverse_mod_y(v, d, nvars, ring):
    """Inverse of a y-polynomial v with v(0) a unit, modulo y^d."""
    c0 = v.coeff((0,) * nvars)
    inv0 = ring.invert(c0)
    out = SparsePoly.constant(nvars, ring, inv0)
    one = SparsePoly.constant(nvars, ring, ring.one())
    below_d = _y_below(nvars, d)
    for _ in range(d):
        err = one - v.mul(out, below_d)
        if not err:
            break
        out = out + out.mul(err, below_d)
    return out


def _top_x_order(cap):
    """The largest x-order a cap admits; x-weights > 0 and y-weight >= 0."""
    *x_weights, y_weight = cap.weights
    if min(x_weights) <= 0 or y_weight < 0:
        raise ValueError("a tail cap needs positive x-weights and a nonnegative y-weight")
    return cap.bound // min(x_weights)


def weierstrass_normalize(gbar, d, cap):
    """Split gbar = u * g with g monic in y of degree d >= 1 whose lower
    coefficients vanish at x = 0, and u a unit, order by order in total
    x-degree, forming only the terms ``cap`` (a WeightedBound) admits.

    At x-order m the equation reads  v * g_m + u_m * y^d = R_m  with
    v = gbar(0, y)/y^d, so g_m is (v^{-1} R_m) mod y^d and u_m the exact
    quotient of the rest by y^d.  With no term of gbar lighter than y^d, g is
    exact up to the cap and u up to the cap minus the weight of y^d.
    """
    if d < 1:
        raise ValueError("the monic part needs y-degree d >= 1")
    top_order = _top_x_order(cap)
    ring = gbar.ring
    nvars = gbar.nvars
    parts = _x_parts(gbar.truncate(cap))
    zero_part = parts.get(0, SparsePoly.zero(nvars, ring))
    if not zero_part:
        raise NotPrepared("the series vanishes at x = 0")
    ymin = min(e[-1] for e in zero_part.terms)
    if ymin != d:
        raise NotPrepared(f"x-free part has y-order {ymin}, expected {d}")
    v = SparsePoly(nvars, ring,
                   {e[:-1] + (e[-1] - d,): c for e, c in zero_part.terms.items()})
    v_inv = _series_inverse_mod_y(v, d, nvars, ring)
    below_d = _y_below(nvars, d)

    g_parts = {0: SparsePoly.monomial(nvars, ring, (0,) * (nvars - 1) + (d,))}
    u_parts = {0: v}
    for m in range(1, top_order + 1):
        acc = dict(parts[m].terms) if m in parts else {}
        for i in range(1, m):
            if i in u_parts and (m - i) in g_parts:
                for e, c in u_parts[i].mul(g_parts[m - i], cap).terms.items():
                    acc[e] = acc.get(e, 0) - c
        acc = SparsePoly(nvars, ring, acc)
        # acc = v*g_m + u_m*y^d
        g_m = v_inv.mul(acc, below_d).truncate(cap)
        u_m_low, u_m = _y_split(acc - v.mul(g_m, cap), d)
        assert not u_m_low, "Weierstrass division left a low-order remainder"
        if g_m:
            g_parts[m] = g_m
        if u_m:
            u_parts[m] = u_m
    return _join(u_parts.values(), nvars, ring), _join(g_parts.values(), nvars, ring)


def _join(parts, nvars, ring):
    """Sum of polynomials with pairwise disjoint supports, built once."""
    return SparsePoly(nvars, ring, [t for part in parts for t in part.terms.items()])


def poly_divide(f, g, cap):
    """Division f = q*g + r with deg_y r < deg_y g, exact in y, forming only
    the terms the tail cap ``cap`` admits.  The divisor must be monic in y."""
    _top_x_order(cap)
    ring = f.ring
    nvars = f.nvars
    d, top = _top_in_last(g)
    if top != ring.one():
        raise NotMonic("the divisor must be monic in the last variable")
    # each step's quotient terms share one y-degree, lower than the last's
    q_parts = []
    r = f.truncate(cap)
    g = g.truncate(cap)
    while r:
        dy = max(e[-1] for e in r.terms)
        if dy < d:
            break
        lead = SparsePoly(nvars, ring,
                          {e[:-1] + (e[-1] - d,): c for e, c in r.terms.items()
                           if e[-1] == dy})
        q_parts.append(lead)
        r = r - lead.mul(g, cap)
    return _join(q_parts, nvars, ring), r


# -- the p-adic specialization ----------------------------------------------------

@dataclass(frozen=True)
class PadicPoly:
    """A univariate polynomial with integer coefficients read in Z/p^k[y]."""

    coefficients: tuple
    p: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(c % self.p**self.k for c in self.coefficients))
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k < 2:
            raise ValueError("need precision k >= 2")
        if not any(self.coefficients):
            raise ValueError("the zero polynomial has no Newton polygon")

    @property
    def ring(self):
        return residue_ring(self.p, self.k)

    def valuations(self):
        """Support points (v_p(a_j), j) of the plane model."""
        return list(_plane(_as_poly(self)).terms)


def _as_poly(pp):
    return SparsePoly(1, pp.ring, {(j,): c for j, c in enumerate(pp.coefficients)})


def _plane(P):
    """The plane model of P in Z/p^k[y]: over F_p, the leading p-adic digit
    of each term c*y^j sits at the point (v_p(c), j)."""
    view = _plane_term(P.ring)
    return SparsePoly(2, prime_field(P.ring.p), (view(j, c) for (j,), c in P.terms.items()))


def _plane_term(ring):
    """The plane model term by term: term(j, c) maps c*y^j in Z/p^k[y] to
    the point (v_p(c), j) with the digit c / p^v_p(c) mod p."""
    p, modulus = ring.p, ring.modulus
    # A nonzero residue c has gcd(c, p^k) = p^v_p(c) with v_p(c) < k, and
    # p^v has more bits than p^(v-1), so its bit length names v.
    exponents = {}
    power = 1
    for v in range(ring.k):
        exponents[power.bit_length()] = v
        power *= p

    def term(j, c):
        power = gcd(c, modulus)
        return (exponents[power.bit_length()], j), c // power % p
    return term


@dataclass(frozen=True)
class PadicFactors:
    """A p-adic split: the factors multiply to f mod p^k.  The first lifts
    the monic split part G but is monic only mod p (y^2 + 2*y + 8 at p = 2,
    k = 4 gives 2 + 11*y)."""
    factors: tuple            # coefficient tuples over Z/p^k, ascending in y
    edge: newton.Edge
    restriction: SparsePoly   # over F_p in the (p, y) plane model
    polygon: newton.NewtonPolyhedron
    certificate: object


@dataclass(frozen=True)
class NoCoprimeSplit:
    edge: newton.Edge
    factor: SparsePoly
    power: int
    polygon: newton.NewtonPolyhedron


@dataclass(frozen=True)
class NoLooseEdgeInfo:
    polygon: newton.NewtonPolyhedron


def padic_newton_factor(pp):
    """Factor over Z/p^k through the Newton polygon.

    Builds the polygon on the points (v_p(a_j), j); every compact edge of a
    plane polygon is loose.  Per descendant edge the restriction over F_p is
    factored; when a coprime split with a monic part exists it is lifted with
    residue-field solves and canonical-residue representatives, and the
    product is verified mod p^k.  The lifted first factor is monic only mod
    p (PadicFactors).  Verdicts: PadicFactors, NoCoprimeSplit, or
    NoLooseEdgeInfo.
    """
    if pp.coefficients[-1] % pp.p == 0:
        raise ValueError("the leading coefficient must be a unit mod p")
    f = _as_poly(pp)
    plane = _plane(f)
    polygon = newton.build_from_support(list(plane.terms), 2)
    edges = [e for e in polygon.edges if e.descendant]
    if not edges:
        return NoLooseEdgeInfo(polygon)

    rest, chosen = _first_split(plane, edges, monic_last=True)
    if isinstance(chosen, EdgePrimePower):
        return NoCoprimeSplit(chosen.edge, chosen.factor, chosen.power, polygon)
    g, h, cert = _padic_lift(pp, rest, chosen)
    return PadicFactors((g, h), rest.edge, rest.poly, polygon, cert)


def _padic_lift(pp, rest, split):
    """Lift a plane split to factors of pp in Z/p^k[y]; returns their
    coefficient tuples and the certificate.

    The p-adic loop keeps f, g, h and the residual f - g*h as dense lists
    of residues indexed by y-degree, and each nonzero residual degree's
    plane view: its point (v_p(c), j), digit and weight in ws.xi0.  A step's
    terms are the views of least weight; the shared _step_solver solves
    them over F_p, and a solved lambda at (v, j) adds lambda * p^v to the
    factor's degree j.  The step subtracts g'*(h + h') + g*h' from the
    residual as list convolutions and views again only the degrees they
    wrote.  Each step caps the solution blocks at the y-degrees of the true
    factors (deg f - deg G for h' and deg G for g'), since free choices
    above those degrees would stop the p-adic sums from converging; so no
    product passes deg f.  The loop ends when the residual is zero, and the
    product check forms f - g*h once more from the lists.
    """
    p, modulus = pp.p, pp.ring.modulus
    f = list(pp.coefficients)
    ws = rest.ws
    x0, x1 = ws.xi0
    G, H = split.G, split.H
    w, z = _uniform_weight(G, ws), _uniform_weight(H, ws)
    d, deg_f = max(j for _, j in G.terms), len(f) - 1
    solve = _step_solver(G, H, w, ws, (deg_f - d, d))
    view = _plane_term(pp.ring)
    powers = {}

    def embedded(part):
        """(j, lambda * p^v mod p^k) for each plane term ((v, j), lambda)."""
        out = []
        for (v, j), lam in part:
            power = powers.get(v)
            if power is None:
                power = powers[v] = p**v % modulus
            out.append((j, lam * power % modulus))
        return out

    def grow(terms, part):
        for j, c in part:
            terms[j] = (terms[j] + c) % modulus

    g, h = [0] * (d + 1), [0] * (deg_f - d + 1)
    assert max(j for _, j in H.terms) < len(h), "H passes the cap deg f - deg G"
    grow(g, embedded(G.terms.items()))
    grow(h, embedded(H.terms.items()))
    r = f[:]
    views = [None] * len(f)   # per degree: (weight, point, digit), None at 0

    def review(degrees):
        for j in degrees:
            c = r[j] = r[j] % modulus
            if c:
                point, digit = view(j, c)
                views[j] = x0 * point[0] + x1 * j, point, digit
            else:
                views[j] = None

    review(_subtract_product(r, enumerate(g), h))
    cert = LiftCertificate(w, z, (pp.k - 1) * x0 + deg_f * x1)
    previous = None
    while True:
        live = [x for x in views if x]
        least = min(live)[0] if live else None
        if cert.steps:
            cert.steps[-1].residual_after = least
        if least is None:
            break
        if previous is not None and least <= previous:
            raise Unsolvable(f"residual weight did not increase at {(least,)}")
        previous = least
        step = (least - w[0] - z[0],)
        if step[0] < 0:
            raise Unsolvable(f"residual weight {(least,)} below the initial weight")
        terms = [(point, digit) for weight, point, digit in live if weight == least]
        h_part, g_part, dims = solve(terms, terms[0][0], (least - w[0],))
        cert.steps.append(LiftStep(step, dims, least))
        # (g + g')(h + h') - g*h = g'*(h + h') + g*h'
        h_part, g_part = embedded(h_part), embedded(g_part)
        grow(h, h_part)
        touched = _subtract_product(r, g_part, h) | _subtract_product(r, h_part, g)
        grow(g, g_part)
        review(touched)
    check = f[:]
    _subtract_product(check, enumerate(g), h)
    assert not any(c % modulus for c in check), "p-adic product check failed: f - g*h is not 0"
    return tuple(trim(g, pp.ring)), tuple(trim(h, pp.ring)), cert


def _subtract_product(r, left, right):
    """r -= left * right, for ``left`` (degree, coefficient) pairs and
    ``right`` a coefficient list; returns the degrees of r written."""
    written = set()
    for j1, c1 in left:
        for j, c2 in enumerate(right, j1):
            r[j] -= c1 * c2
        written.update(range(j1, j1 + len(right)))
    return written
