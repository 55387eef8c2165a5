"""The monic pipeline: descendant loose edges for polynomials in a
distinguished last variable y, monic lifting, Weierstrass normalization,
polynomial division, and the p-adic Newton-polygon specialization.

For the p-adic case, a polynomial over Z/p^k is modeled by the plane support
points (v_p(a_j), j).  All cofactor solves happen over F_p in that
two-variable picture; the accumulated factors carry Z/p^k coefficients via
canonical-residue representatives, and a coefficient lambda at the point
(v, j) lifts to int(lambda) * p^v * y^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from fractions import Fraction

from . import newton
from .coeffs import is_prime, prime_field, residue_ring
from .grading import orthogonal_basis
from .lift import (EdgeRestriction, LiftCertificate, LiftError, LiftStep, NotLoose,
                   PrimePower, Unsolvable, _line_form, _run_lift,
                   _split_from_restriction, _top_in_last, _uniform_weight,
                   _validate_split, edge_restriction, solve_cofactor)
from .poly import SparsePoly, deglex_key
from .unifactor import degree, padd, pmul, psub, trim


class NotDescendant(LiftError):
    """The chosen edge has no orientation with nonnegative x-part and
    negative y-part."""


class NotMonic(LiftError):
    """The split part G (or the divisor) is not monic in the last variable."""


class NotPrepared(LiftError):
    """The series does not satisfy the preparation hypothesis at x = 0."""


class PrecisionTooLow(LiftError):
    """The p-adic residual failed to clear within the working precision."""


@dataclass(frozen=True)
class WeierstrassInput:
    """A polynomial whose last variable is the distinguished y."""

    f: SparsePoly

    def __post_init__(self):
        if not self.f:
            raise ValueError("need a nonzero polynomial")
        if self.f.nvars < 2:
            raise ValueError("need at least one x variable besides y")

    @property
    def degy(self):
        return max(e[-1] for e in self.f.terms)


def descendant_loose_edges(wi):
    """Loose compact edges with an orientation that has nonnegative x-entries
    and a negative y-entry, in the deterministic edge order."""
    np = newton.build(wi.f)
    return [e for e in np.edges if e.loose and e.descendant]


def _monic_in_y(G):
    """Check that G's top term in the last variable is the bare monomial
    (0, ..., 0, d) with coefficient one."""
    d, lead = _top_in_last(G)
    return lead == G.ring.one(), d


def lift_monic(wi, edge, split, bound):
    """The lifting loop under the monic hypothesis: the edge must be loose
    and descendant and G monic in y; G need not avoid variable factors."""
    f = wi.f
    if not edge.loose:
        raise NotLoose(f"edge {edge.a}-{edge.b} is not loose")
    if not edge.descendant:
        raise NotDescendant(f"edge {edge.a}-{edge.b} is not descendant")
    rest = edge_restriction(f, edge)
    _validate_split(split, rest.poly)
    ok, d = _monic_in_y(split.G)
    if not ok:
        raise NotMonic("G must be monic in the last variable")
    gbar, hbar, cert = _run_lift(f, rest.ws, split.G, split.H, bound)
    assert gbar.coeff((0,) * (f.nvars - 1) + (d,)) == f.ring.one()
    return gbar, hbar, cert


# -- Weierstrass preparation -----------------------------------------------------

def _x_degree(e):
    return sum(e[:-1])


def _x_parts(f):
    """Group terms by total x-degree; values are SparsePoly slices."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(_x_degree(e), {})[e] = c
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
    for _ in range(d):
        err = one - v * out
        if not err:
            break
        err = SparsePoly(nvars, ring, {e: c for e, c in err.terms.items() if e[-1] < d})
        out = SparsePoly(nvars, ring,
                         {e: c for e, c in (out + out * err).terms.items() if e[-1] < d})
    return out


def weierstrass_normalize(gbar, d, bound_x):
    """Split gbar = u * g with g monic in y of degree d whose lower
    coefficients vanish at x = 0, and u a unit, order by order in total
    x-degree up to ``bound_x``.

    At x-order m the equation reads  v * g_m + u_m * y^d = R_m  with
    v = gbar(0, y)/y^d, so g_m is (v^{-1} R_m) mod y^d and u_m the exact
    quotient of the rest by y^d.
    """
    ring = gbar.ring
    nvars = gbar.nvars
    parts = _x_parts(gbar)
    zero_part = parts.get(0, SparsePoly.zero(nvars, ring))
    if not zero_part:
        raise NotPrepared("the series vanishes at x = 0")
    ymin = min(e[-1] for e in zero_part.terms)
    if ymin != d:
        raise NotPrepared(f"x-free part has y-order {ymin}, expected {d}")
    v = SparsePoly(nvars, ring,
                   {e[:-1] + (e[-1] - d,): c for e, c in zero_part.terms.items()})
    v_inv = _series_inverse_mod_y(v, d, nvars, ring)

    ypow_d = SparsePoly.monomial(nvars, ring, (0,) * (nvars - 1) + (d,))
    g_parts = {0: ypow_d}
    u_parts = {0: v}
    for m in range(1, bound_x + 1):
        acc = parts.get(m, SparsePoly.zero(nvars, ring))
        for i in range(1, m):
            if i in u_parts and (m - i) in g_parts:
                acc = acc - u_parts[i] * g_parts[m - i]
        # acc = v*g_m + u_m*y^d
        low = SparsePoly(nvars, ring,
                         {e: c for e, c in (v_inv * acc).terms.items() if e[-1] < d})
        g_m = low
        u_m_shift = acc - v * g_m
        u_m_low, u_m = _y_split(u_m_shift, d)
        assert not u_m_low, "Weierstrass division left a low-order remainder"
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


def poly_divide(f, g, bound_x):
    """Division f = q*g + r with deg_y r < deg_y g, exact in y, truncated in
    total x-degree at ``bound_x``.  The divisor must be monic in y."""
    ring = f.ring
    nvars = f.nvars
    ok, d = _monic_in_y(g)
    if not ok:
        raise NotMonic("the divisor must be monic in the last variable")
    q = SparsePoly.zero(nvars, ring)
    r = _truncate_x(f, bound_x)
    g = _truncate_x(g, bound_x)
    while r:
        dy = max(e[-1] for e in r.terms)
        if dy < d:
            break
        lead = SparsePoly(nvars, ring,
                          {e[:-1] + (e[-1] - d,): c for e, c in r.terms.items()
                           if e[-1] == dy})
        q = q + lead
        r = _truncate_x(r - lead * g, bound_x)
    return q, r


def _truncate_x(P, bound_x):
    return SparsePoly(P.nvars, P.ring,
                      {e: c for e, c in P.terms.items() if _x_degree(e) <= bound_x})


def weight_to_x_bound(ws, bound):
    """Total-x-degree bound equivalent to a weighted bound: N / min(xi0)."""
    return ceil(Fraction(bound, min(ws.xi0)))


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
        """Support points (v_p(a_j), j) of the plane model, capped at k."""
        out = []
        for j, c in enumerate(self.coefficients):
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            out.append((v, j))
        return out


@dataclass(frozen=True)
class PadicFactors:
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


def _vp(c, p, cap):
    if c == 0:
        return cap
    v = 0
    while c % p == 0 and v < cap:
        c //= p
        v += 1
    return v


def _embed_plane(P, p, k):
    """Map a plane F_p-polynomial into Z/p^k[y] via canonical residues:
    lambda * x^v * y^j  becomes  int(lambda) * p^v * y^j."""
    mod = p**k
    out = {}
    for (v, j), lam in P.terms.items():
        if v >= k:
            continue
        out[j] = (out.get(j, 0) + int(lam) * p**v) % mod
    top = max(out) if out else 0
    return [out.get(j, 0) for j in range(top + 1)]


def padic_newton_factor(pp, seed=0):
    """Factor over Z/p^k through the Newton polygon.

    Builds the polygon on the points (v_p(a_j), j); every compact edge of a
    plane polygon is loose.  Per descendant edge the restriction over F_p is
    factored; when a coprime split with a monic part exists it is lifted with
    residue-field solves and canonical-residue representatives, and the
    product is verified mod p^k.  Verdicts: PadicFactors, NoCoprimeSplit, or
    NoLooseEdgeInfo.
    """
    p, k = pp.p, pp.k
    fp = prime_field(p)
    coeffs = list(pp.coefficients)
    if coeffs[-1] % p == 0:
        raise ValueError("the leading coefficient must be a unit mod p")
    support = pp.valuations()
    polygon = newton.build_from_support(support, 2)
    edges = [e for e in polygon.edges if e.descendant]
    if not edges:
        return NoLooseEdgeInfo(polygon)

    failure = None
    for edge in edges:
        rest_terms = {}
        edge_points = set(edge.lattice_points())
        for v, j in support:
            if (v, j) in edge_points:
                unit = (coeffs[j] // p**v) % p
                if unit:
                    rest_terms[(v, j)] = unit
        restriction = SparsePoly(2, fp, rest_terms)
        ws = orthogonal_basis(edge.direction)
        content, uni = _line_form(restriction, edge.direction)
        rest = EdgeRestriction(restriction, edge, ws, content, tuple(uni))
        chosen = _split_from_restriction(rest, prefer_factored=True,
                                         monic_last=True, seed=seed)
        if isinstance(chosen, PrimePower):
            if failure is None:
                failure = NoCoprimeSplit(edge, chosen.factor, chosen.power, polygon)
            continue
        g, h, cert = _padic_lift(coeffs, pp, rest, chosen)
        return PadicFactors((tuple(g), tuple(h)), edge, restriction, polygon, cert)
    return failure


def _padic_lift(coeffs, pp, rest, split):
    """Run the lifting loop on the plane model, carrying Z/p^k coefficients."""
    p, k = pp.p, pp.k
    ring = pp.ring
    ws = rest.ws
    G, H = split.G, split.H
    w = _uniform_weight(G, ws)
    z = _uniform_weight(H, ws)
    g = _embed_plane(G, p, k)
    h = _embed_plane(H, p, k)
    degy = degree(trim(list(coeffs), ring))
    d_monic = max(j for _, j in G.terms)
    cert = LiftCertificate(w, z, (k - 1) * ws.xi0[0] + degy * ws.xi0[1])
    previous = None
    fp = prime_field(p)
    while True:
        residual = psub(coeffs, pmul(g, h, ring), ring)
        if cert.steps:
            cert.steps[-1].residual_after = _residual_weight(residual, p, k, ws)
        if not residual:
            break
        points = {}
        for j, c in enumerate(residual):
            if c:
                v = _vp(c, p, k)
                if v < k:
                    points[(v, j)] = (c // p**v) % p
        if not points:
            break  # everything left is divisible by p^k
        wmin = min((ws.weight(pt) for pt in points), key=deglex_key)
        if previous is not None and deglex_key(wmin) <= previous:
            raise PrecisionTooLow(f"residual weight stalled at {wmin}")
        previous = deglex_key(wmin)
        initial = SparsePoly(2, fp, {pt: lam for pt, lam in points.items()
                                     if ws.weight(pt) == wmin})
        # Cap the solution blocks at the y-degrees of the true factors
        # (deg G and deg f - deg G); free choices above those degrees would
        # stop the p-adic sums from converging.  Escalate when a capped
        # system happens to be inconsistent.
        h_part = g_part = None
        for extra in (0, 2, 4, None):
            caps = (None if extra is None
                    else (max(degy - d_monic + extra, 0), d_monic + extra))
            try:
                h_part, g_part = solve_cofactor(G, H, initial, ws,
                                                max_last_exp=caps)
                break
            except Unsolvable:
                if extra is None:
                    raise
        g = padd(g, _embed_plane(g_part, p, k), ring)
        h = padd(h, _embed_plane(h_part, p, k), ring)
        cert.steps.append(LiftStep(tuple(wmin), (len(h_part), len(g_part)), sum(wmin)))
    assert pmul(g, h, ring) == trim(list(coeffs), ring), "p-adic product check failed"
    cert.exit_min_weight = None
    return g, h, cert


def _residual_weight(residual, p, k, ws):
    best = None
    for j, c in enumerate(residual):
        if c:
            v = _vp(c, p, k)
            if v < k:
                weight = sum(ws.weight((v, j)))
                best = weight if best is None else min(best, weight)
    return best
