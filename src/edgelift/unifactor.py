"""Univariate polynomial factorization over Q and F_p.

Dense polynomials are coefficient lists in ascending order with no trailing
zeros.  Over a prime field the route is squarefree decomposition, then
distinct-degree splitting, then randomized equal-degree splitting (with the
trace construction in characteristic two).  Over the rationals: content
removal, the same squarefree decomposition, factorization modulo a good prime,
quadratic Hensel lifting of the factor tree, and exhaustive subset
recombination.  Desk scale only; degrees beyond the caps are rejected.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, isqrt

from .coeffs import (PRIME_FIELD, RATIONALS, RESIDUE_RING, is_prime, prime_field,
                     rationals, residue_ring)

_Q = rationals()

MAX_RATIONAL_DEGREE = 24
MAX_PRIME_FIELD_DEGREE = 512


class UnsupportedRing(ValueError):
    """Factorization is available over Q and F_p only."""


class DegreeTooLarge(ValueError):
    """Input degree exceeds the desk-scale cap."""


# -- dense arithmetic over a field ring ---------------------------------------

def trim(cs, ring):
    cs = [ring.normalize(c) for c in cs]
    while cs and ring.is_zero(cs[-1]):
        cs.pop()
    return cs


def degree(cs):
    return len(cs) - 1


def padd(a, b, ring):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return trim(out, ring)


def psub(a, b, ring):
    return padd(a, [-c for c in b], ring)


def pmul(a, b, ring):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out, ring)


def pscale(a, c, ring):
    return trim([x * c for x in a], ring)


def pdivmod(a, b, ring):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv = ring.invert(b[-1])
    q = [ring.zero()] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = ring.mul(a[-1], inv)
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = ring.sub(a[shift + i], ring.mul(c, y))
        a = trim(a, ring)
    return trim(q, ring), a


def pmod(a, b, ring):
    return pdivmod(a, b, ring)[1]


def monic(a, ring):
    if not a:
        return a
    return pscale(a, ring.invert(a[-1]), ring)


def pgcd(a, b, ring):
    """Monic gcd via the Euclidean algorithm."""
    a, b = trim(list(a), ring), trim(list(b), ring)
    while b:
        a, b = b, pmod(a, b, ring)
    return monic(a, ring)


def pxgcd(a, b, ring):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = trim(list(a), ring), trim(list(b), ring)
    s0, s1 = [ring.one()], []
    t0, t1 = [], [ring.one()]
    while r1:
        q, r = pdivmod(r0, r1, ring)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, ring), ring)
        t0, t1 = t1, psub(t0, pmul(q, t1, ring), ring)
    if r0:
        inv = ring.invert(r0[-1])
        r0, s0, t0 = pscale(r0, inv, ring), pscale(s0, inv, ring), pscale(t0, inv, ring)
    return r0, s0, t0


def ppow_mod(base, e, mod, ring):
    out = [ring.one()]
    base = pmod(base, mod, ring)
    while e:
        if e & 1:
            out = pmod(pmul(out, base, ring), mod, ring)
        base = pmod(pmul(base, base, ring), mod, ring)
        e >>= 1
    return out


def pderiv(a, ring):
    return trim([ring.mul(c, ring.from_int(i)) for i, c in enumerate(a)][1:], ring)


def ppow(a, n, ring):
    out = [ring.one()]
    while n:
        if n & 1:
            out = pmul(out, a, ring)
        a = pmul(a, a, ring)
        n >>= 1
    return out


# -- factorization over F_p ----------------------------------------------------

def _pth_root(f, ring):
    """For f(x) = g(x^p) over F_p return g (Frobenius fixes coefficients)."""
    p = ring.p
    return trim([f[i] for i in range(0, len(f), p)], ring)


def _squarefree(f, ring):
    """Squarefree decomposition of a monic polynomial over F_p or Q.

    In characteristic zero the derivative of a nonconstant polynomial is
    nonzero and the loop leaves c constant, so the p-th-root branches are
    for F_p only."""
    out = []
    if degree(f) < 1:
        return out
    df = pderiv(f, ring)
    if not df:
        return [(g, m * ring.p) for g, m in _squarefree(_pth_root(f, ring), ring)]
    c = pgcd(f, df, ring)
    w = pdivmod(f, c, ring)[0]
    i = 1
    while degree(w) > 0:
        y = pgcd(w, c, ring)
        z = pdivmod(w, y, ring)[0]
        if degree(z) > 0:
            out.append((z, i))
        w = y
        c = pdivmod(c, y, ring)[0]
        i += 1
    if degree(c) > 0:
        out.extend((g, m * ring.p) for g, m in _squarefree(_pth_root(c, ring), ring))
    return out


def _distinct_degree(f, ring):
    """Split a squarefree monic polynomial into (product, d) pieces where each
    product collects the irreducible factors of degree d."""
    out = []
    x = [ring.zero(), ring.one()]
    h = list(x)
    d = 0
    while degree(f) > 2 * (d + 1) - 1 and degree(f) > 0:
        d += 1
        h = ppow_mod(h, ring.p, f, ring)
        g = pgcd(psub(h, x, ring), f, ring)
        if degree(g) > 0:
            out.append((g, d))
            f = pdivmod(f, g, ring)[0]
            h = pmod(h, f, ring)
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _equal_degree(f, d, ring, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    n = degree(f)
    if n == d:
        return [f]
    p = ring.p
    while True:
        r = trim([ring.from_int(rng.randrange(p)) for _ in range(n)], ring)
        if degree(r) < 1:
            continue
        g = pgcd(r, f, ring)
        if 0 < degree(g) < n:
            break
        if p % 2:
            s = ppow_mod(r, (p**d - 1) // 2, f, ring)
            g = pgcd(psub(s, [ring.one()], ring), f, ring)
        else:
            s = list(r)
            acc = list(r)
            for _ in range(d - 1):
                acc = pmod(pmul(acc, acc, ring), f, ring)
                s = padd(s, acc, ring)
            g = pgcd(s, f, ring)
        if 0 < degree(g) < n:
            break
    rest = pdivmod(f, g, ring)[0]
    return _equal_degree(g, d, ring, rng) + _equal_degree(rest, d, ring, rng)


def _factor_fp(f, ring, rng):
    unit = f[-1]
    f = monic(f, ring)
    factors = []
    for part, mult in _squarefree(f, ring):
        for prod, d in _distinct_degree(part, ring):
            for irr in _equal_degree(prod, d, ring, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (degree(fm[0]), tuple(fm[0])))
    return unit, factors


# -- factorization over Q -------------------------------------------------------

def _primitive(ints):
    """Primitive part with positive leading coefficient, plus the removed unit."""
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        return ints, 1
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints], g


def _rationals_to_primitive(cs):
    """The primitive integer multiple of cs with positive leading coefficient."""
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    return _primitive([int(c * den) for c in cs])[0]


def _hensel_step(f, g, h, s, t, ring):
    """One quadratic lifting step: from f = g*h, s*g + t*h = 1 (mod p^e) to
    the same congruences in ring = Z/p^(2e), with g and h kept monic."""
    err = psub(f, pmul(g, h, ring), ring)
    q, r = pdivmod(pmul(s, err, ring), h, ring)
    g2 = padd(g, padd(pmul(t, err, ring), pmul(q, g, ring), ring), ring)
    h2 = padd(h, r, ring)
    b = psub(padd(pmul(s, g2, ring), pmul(t, h2, ring), ring), [1], ring)
    c, d = pdivmod(pmul(s, b, ring), h2, ring)
    s2 = psub(s, d, ring)
    t2 = psub(t, padd(pmul(t, b, ring), pmul(c, g2, ring), ring), ring)
    assert g2 and g2[-1] == 1 and h2 and h2[-1] == 1
    return g2, h2, s2, t2


def _hensel_tree(f, parts, p, k):
    """Lift a coprime monic factorization of a monic f from mod p to mod
    p^k (k a power of two) by recursive pairing."""
    ring = residue_ring(p, k)
    if len(parts) == 1:
        return [trim(f, ring)]
    fp = prime_field(p)
    mid = len(parts) // 2
    g = [1]
    for part in parts[:mid]:
        g = pmul(g, part, fp)
    h = [1]
    for part in parts[mid:]:
        h = pmul(h, part, fp)
    one, s, t = pxgcd(g, h, fp)
    assert one == [1]
    e = 1
    while e < k:
        e *= 2
        g, h, s, t = _hensel_step(f, g, h, s, t, residue_ring(p, e))
    g, h = trim(g, ring), trim(h, ring)
    return _hensel_tree(g, parts[:mid], p, k) + _hensel_tree(h, parts[mid:], p, k)


def _sym(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _zdivides(a, b):
    """Exact division test over Z: b | a, returning the quotient or None."""
    if not b:
        return None
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        if a[-1] % b[-1]:
            return None
        c = a[-1] // b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return q if not a else None


def _zassenhaus(f, rng):
    """Factor a primitive squarefree integer polynomial with positive leading
    coefficient into primitive irreducible factors."""
    n = degree(f)
    if n <= 1:
        return [f]
    lead = f[-1]
    # Monicize: F(x) = lead^(n-1) f(x/lead) is integer and monic; factors map
    # back as the primitive parts of F_j(lead*x).
    big = [f[i] * lead ** (n - 1 - i) for i in range(n)] + [1]

    p = 3
    while True:
        if is_prime(p):
            fp = prime_field(p)
            reduced = trim([c % p for c in big], fp)
            if degree(reduced) == n and degree(pgcd(reduced, pderiv(reduced, fp), fp)) == 0:
                break
        p += 2
    fp = prime_field(p)
    _, modular = _factor_fp(trim([c % p for c in big], fp), fp, rng)
    parts = [coeffs for coeffs, _ in modular]
    if len(parts) == 1:
        return [f]

    norm = isqrt(sum(c * c for c in big)) + 1
    bound = 2**n * norm
    k = 1
    while p**k < 2 * bound + 1:
        k *= 2
    target = p**k
    ring = residue_ring(p, k)
    lifted = _hensel_tree(trim(big, ring), parts, p, k)

    def from_big(coeffs):
        mapped = [c * lead**i for i, c in enumerate(coeffs)]
        return _primitive(mapped)[0]

    found = []
    remaining = list(range(len(lifted)))
    current = list(big)
    size = 1
    while 2 * size <= len(remaining):
        hit = None
        for combo in combinations(remaining, size):
            cand = [1]
            for idx in combo:
                cand = pmul(cand, lifted[idx], ring)
            cand = [_sym(c, target) for c in cand]
            quotient = _zdivides(current, cand)
            if quotient is not None:
                hit = (combo, cand, quotient)
                break
        if hit is None:
            size += 1
            continue
        combo, cand, quotient = hit
        found.append(from_big(cand))
        remaining = [i for i in remaining if i not in combo]
        current = quotient
    if degree(current) > 0:
        found.append(from_big(current))
    return found


def _factor_rationals(cs, rng):
    factors = []
    for part, mult in _squarefree(monic(_rationals_to_primitive(cs), _Q), _Q):
        factors.extend((irr, mult) for irr in _zassenhaus(_rationals_to_primitive(part), rng))
    factors.sort(key=lambda fm: (degree(fm[0]), tuple(fm[0])))
    # The factors are associates of the true irreducible parts, so the unit is
    # the ratio of leading coefficients.
    lead = 1
    for fac, mult in factors:
        lead *= fac[-1] ** mult
    return _Q.div(cs[-1], lead), factors


def factor_univariate(ring, coeffs, seed=0):
    """Factor a univariate polynomial over Q or F_p.

    Returns (unit, factors) where factors is a deterministic sorted list of
    (coefficient_list, multiplicity) pairs, each factor irreducible (monic
    over F_p, primitive with positive leading coefficient over Q), with
    unit * product(factor^multiplicity) equal to the input.
    """
    if ring.kind == RESIDUE_RING:
        raise UnsupportedRing("factorization works over the residue field, not Z/p^k")
    if ring.kind not in (RATIONALS, PRIME_FIELD):
        raise UnsupportedRing(f"cannot factor over {ring}")
    cs = trim(list(coeffs), ring)
    if degree(cs) < 1:
        raise ValueError("factorization needs degree at least 1")
    rng = random.Random(seed)
    if ring.kind == RATIONALS:
        if degree(cs) > MAX_RATIONAL_DEGREE:
            raise DegreeTooLarge(f"degree {degree(cs)} exceeds {MAX_RATIONAL_DEGREE} over Q")
        return _factor_rationals(cs, rng)
    if degree(cs) > MAX_PRIME_FIELD_DEGREE:
        raise DegreeTooLarge(f"degree {degree(cs)} exceeds {MAX_PRIME_FIELD_DEGREE}")
    return _factor_fp(cs, ring, rng)
