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
from .lift import (EdgePrimePower, LiftError, NotLoose, _first_split, _run_lift,
                   _top_in_last, _validate_split, edge_restriction)
from .poly import SparsePoly, WeightedBound, exp_add
# Unused here, but perfbench/tracing.py patches these names in this module;
# without them its --trace 1 does not install.
from .grading import orthogonal_basis  # noqa: F401
from .lift import solve_cofactor  # noqa: F401
from .unifactor import pmul  # noqa: F401


class NotDescendant(LiftError):
    """The chosen edge has no orientation with nonnegative x-part and
    negative y-part."""


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


def _require_descendant(edge):
    """Raise NotLoose or NotDescendant unless the monic lift can use edge."""
    if not edge.loose:
        raise NotLoose(f"edge {edge.a}-{edge.b} is not loose")
    if not edge.descendant:
        raise NotDescendant(f"edge {edge.a}-{edge.b} is not descendant")


def lift_monic(wi, edge, split, N):
    """The lifting loop under the monic hypothesis, up to weight N in the
    edge's weights xi0: the edge must be loose and descendant and G monic in
    y; G need not avoid variable factors."""
    f = wi.f
    _require_descendant(edge)
    rest = edge_restriction(f, edge)
    _validate_split(split, rest.poly)
    d, top = _top_in_last(split.G)
    if top != split.G.ring.one():
        raise NotMonic("G must be monic in the last variable")
    gbar, hbar, cert = _run_lift(f, rest.ws, split.G, split.H, N)
    assert gbar.coeff((0,) * (f.nvars - 1) + (d,)) == f.ring.one()
    return gbar, hbar, cert


# -- Weierstrass preparation -----------------------------------------------------

def _x_degree(e):
    return sum(e[:-1])


def _y_below(nvars, d):
    """Cap that keeps y-degree < d."""
    return WeightedBound((0,) * (nvars - 1) + (1,), d - 1)


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
    below_d = _y_below(nvars, d)
    for _ in range(d):
        err = one - v.mul(out, below_d)
        if not err:
            break
        out = out + out.mul(err, below_d)
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
    if d == 0:
        # g = 1 and u = gbar: no cap keeps only the y-degrees below 0
        u = _join([part for m, part in parts.items() if m <= bound_x], nvars, ring)
        return u, SparsePoly.constant(nvars, ring, ring.one())
    v = SparsePoly(nvars, ring,
                   {e[:-1] + (e[-1] - d,): c for e, c in zero_part.terms.items()})
    v_inv = _series_inverse_mod_y(v, d, nvars, ring)
    below_d = _y_below(nvars, d)

    ypow_d = SparsePoly.monomial(nvars, ring, (0,) * (nvars - 1) + (d,))
    g_parts = {0: ypow_d}
    u_parts = {0: v}
    for m in range(1, bound_x + 1):
        acc = dict(parts[m].terms) if m in parts else {}
        for i in range(1, m):
            if i in u_parts and (m - i) in g_parts:
                for e, c in (u_parts[i] * g_parts[m - i]).terms.items():
                    acc[e] = acc.get(e, 0) - c
        acc = SparsePoly(nvars, ring, acc)
        # acc = v*g_m + u_m*y^d
        g_m = v_inv.mul(acc, below_d)
        u_m_low, u_m = _y_split(acc - v * g_m, d)
        assert not u_m_low, "Weierstrass division left a low-order remainder"
        if g_m:
            g_parts[m] = g_m
        if u_m:
            u_parts[m] = u_m
    return _join(u_parts.values(), nvars, ring), _join(g_parts.values(), nvars, ring)


def _join(parts, nvars, ring):
    """Sum of polynomials with pairwise disjoint supports, built once."""
    return SparsePoly(nvars, ring, [t for part in parts for t in part.terms.items()])


def poly_divide(f, g, bound_x):
    """Division f = q*g + r with deg_y r < deg_y g, exact in y, truncated in
    total x-degree at ``bound_x``.  The divisor must be monic in y."""
    ring = f.ring
    nvars = f.nvars
    d, top = _top_in_last(g)
    if top != ring.one():
        raise NotMonic("the divisor must be monic in the last variable")
    x_cap = WeightedBound((1,) * (nvars - 1) + (0,), bound_x)  # total x-degree <= bound_x
    # each step's quotient terms share one y-degree, lower than the last's
    q_parts = []
    r = f.truncate(x_cap)
    g = g.truncate(x_cap)
    while r:
        dy = max(e[-1] for e in r.terms)
        if dy < d:
            break
        lead = SparsePoly(nvars, ring,
                          {e[:-1] + (e[-1] - d,): c for e, c in r.terms.items()
                           if e[-1] == dy})
        q_parts.append(lead)
        r = r - lead.mul(g, x_cap)
    return _join(q_parts, nvars, ring), r


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
        """Support points (v_p(a_j), j) of the plane model."""
        return list(_plane(_as_poly(self)).terms)


def _as_poly(pp):
    return SparsePoly(1, pp.ring, {(j,): c for j, c in enumerate(pp.coefficients)})


def _plane(P):
    """The plane model of P in Z/p^k[y]: over F_p, the leading p-adic digit
    of each term c*y^j sits at the point (v_p(c), j)."""
    p = P.ring.p
    # p^(2^i) for 2^i < k: a nonzero residue has v_p < k, so dividing out
    # these blocks largest first finds v_p one binary digit at a time.
    blocks = [(1 << i, p ** (1 << i)) for i in reversed(range((P.ring.k - 1).bit_length()))]
    terms = {}
    for (j,), c in P.terms.items():
        v = 0
        for size, block in blocks:
            q, rem = divmod(c, block)
            if not rem:
                c = q
                v += size
        terms[(v, j)] = c % p
    return SparsePoly(2, prime_field(p), terms)


def _embed_plane(P, ring):
    """Map a plane F_p-polynomial into ring = Z/p^k[y] by canonical residues:
    lambda * x^v * y^j becomes int(lambda) * p^v * y^j."""
    return SparsePoly(1, ring, (((j,), int(lam) * ring.p**v)
                                for (v, j), lam in P.terms.items()))


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


def padic_newton_factor(pp):
    """Factor over Z/p^k through the Newton polygon.

    Builds the polygon on the points (v_p(a_j), j); every compact edge of a
    plane polygon is loose.  Per descendant edge the restriction over F_p is
    factored; when a coprime split with a monic part exists it is lifted with
    residue-field solves and canonical-residue representatives, and the
    product is verified mod p^k.  Verdicts: PadicFactors, NoCoprimeSplit, or
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

    The shared loop runs untruncated on f in y, reading residuals in the
    plane model and embedding corrections by canonical residues.  Each step
    caps the solution blocks at the y-degrees of the true factors (deg G
    and deg f - deg G), since free choices above those degrees would stop
    the p-adic sums from converging.
    """
    f = _as_poly(pp)
    ws = rest.ws
    deg_y = max(j for (j,) in f.terms)
    d_monic = max(j for _, j in split.G.terms)
    caps = (deg_y - d_monic, d_monic)
    g, h, cert = _run_lift(f, ws, split.G, split.H, None, _plane, _embed_plane, caps)
    assert g * h == f, "p-adic product check failed"
    cert.bound = (pp.k - 1) * ws.xi0[0] + deg_y * ws.xi0[1]
    for step in cert.steps:
        step.weight = exp_add(step.weight, exp_add(cert.w, cert.z))
        step.slice_dims = step.solved
    return _dense(g), _dense(h), cert


def _dense(P):
    """Coefficient tuple of a univariate polynomial, ascending."""
    return tuple(P.coeff((j,)) for j in range(max(e[0] for e in P.terms) + 1))
