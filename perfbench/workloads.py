"""Seeded request lists for the two benchmark workloads.

Every request is one ``edgelift`` command line.  Requests come from
*instances*: one input structure run at every size of its ladder (bound,
precision or support size), so the growth rate can be fitted per instance.
Each request carries what its output must satisfy; ``checker.py`` tests that
outside the timed region.

The structure of an instance (exponents of the lift variants, the valuation
chain of a p-adic input, the point set of a support) is fixed by the workload;
the seed draws, per request, what leaves the amount of work alone: signs and
units of coefficients, the prime of F_p, and a translation of each support.
Random structures vary the work of one request several-fold, which ten seeds
cannot average out; fixed structures keep every seed within the benchmark's
bounds.  Drawing per request keeps the requests of one ladder
from sharing an input, so a cache that outlives a request does not turn the
later rungs into repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from polyarith import poly_mul, poly_pow, render

WORKLOADS = ("lift", "geometry")


@dataclass(frozen=True)
class Request:
    """One CLI call plus the facts its output is checked against.

    ``instance`` names the seeded input, ``size`` is the ladder parameter and
    ``rung`` its index on the instance's ladder (0 = smallest).
    ``expect`` holds the expected exit code, verdict and the data the checker
    needs (the input polynomial as an exponent -> integer map, the ring, ...).
    """

    argv: tuple
    instance: str
    size: int
    rung: int
    expect: dict = field(compare=False)


def build(workload, seed, variant=0):
    """The request list of a workload for a seed; the same seed gives the
    same list.  Each ``variant`` draws the seeded parts afresh, so the lists
    of two variants hold the same ladders and the same amount of work but
    different inputs."""
    builders = {"lift": lift_requests, "geometry": geometry_requests}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}:{seed}:{variant}"))


# -- lift: dominated-term variants of the worked examples -------------------------

@dataclass(frozen=True)
class Example:
    names: tuple
    terms: dict
    split: str | None     # the --split argument, for the cases that use it


EXAMPLES = {
    # Example 1, x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2
    "E1": Example(("x", "y", "z"),
                  {(6, 2, 0): 1, (0, 0, 4): -1, (1, 1, 4): 1, (7, 5, 2): -1},
                  "x^3*y - z^2,x^3*y + z^2"),
    # Example 3, y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18
    "E3": Example(("x1", "x2", "y"),
                  {(0, 0, 8): 1, (3, 0, 3): 1, (0, 2, 3): -1, (5, 4, 2): 1,
                   (15, 18, 0): -1},
                  None),
    # the divisibility fixture, x3^3 + x1*x2*x3^2 + x1*x2*x3 + x1^2*x2^2
    "D": Example(("x1", "x2", "x3"),
                 {(0, 0, 3): 1, (1, 1, 2): 1, (1, 1, 1): 1, (2, 2, 0): 1},
                 "x3+x1*x2,x1*x2"),
}


@dataclass(frozen=True)
class LiftCase:
    """One command on one example.  ``edge`` is the loose edge the command
    lifts on the example; every ``extra`` exponent lies componentwise above a
    lattice point of that edge, so it is on no compact face and the polyhedron,
    the restriction and the verdict stay those of the example.  ``bounds``
    gives the --bound ladder for each of the case's two ring kinds (the eight
    cases rotate through Q, F_p and Z/p^k); rungs were sized so that each
    request takes about 0.02-0.15 s at the seed commit and none dominates."""

    example: str
    command: str          # "auto", "split" or "weier"
    edge: tuple
    extra: tuple
    bounds: dict          # ring kind ("Q", "F" or "Z") -> five bounds


LIFT_CASES = (
    LiftCase("E1", "auto", ((0, 0, 4), (6, 2, 0)), ((3, 2, 2), (6, 2, 1)),
             {"Q": (28, 31, 34, 36, 38), "F": (30, 33, 36, 38, 40)}),
    LiftCase("E1", "split", ((0, 0, 4), (6, 2, 0)), ((3, 2, 2), (6, 2, 1)),
             {"F": (32, 35, 38, 40, 42), "Z": (32, 35, 38, 40, 42)}),
    LiftCase("E1", "weier", ((0, 0, 4), (6, 2, 0)), ((0, 0, 5),),
             {"Z": (20, 22, 23, 24, 26), "Q": (18, 20, 21, 22, 23)}),
    LiftCase("E3", "auto", ((5, 4, 2), (15, 18, 0)), ((6, 4, 2), (10, 12, 1)),
             {"Q": (38, 40, 42, 44, 45), "F": (40, 42, 44, 45, 46)}),
    LiftCase("E3", "weier", ((5, 4, 2), (15, 18, 0)), ((5, 4, 3),),
             {"F": (40, 42, 44, 46, 48), "Z": (40, 42, 44, 46, 48)}),
    LiftCase("D", "auto", ((0, 0, 3), (1, 1, 1)), ((2, 1, 1), (1, 2, 1)),
             {"Z": (11, 12, 13, 14, 15), "Q": (10, 11, 12, 13, 14)}),
    LiftCase("D", "split", ((1, 1, 1), (2, 2, 0)), ((2, 1, 1), (2, 3, 0)),
             {"Q": (7, 8, 9, 10, 11), "F": (8, 9, 10, 11, 12)}),
    LiftCase("D", "weier", ((0, 0, 3), (1, 1, 1)), ((0, 0, 4),),
             {"F": (24, 30, 36, 40, 44), "Z": (24, 30, 36, 40, 44)}),
)

# Odd primes only: over F_2 the edge restrictions of the examples are squares,
# which changes the expected verdict rather than the work.  Primes of one size
# and one residue ring keep the work of a case the same on every seed.
FIELD_PRIMES = (101, 103, 107, 109, 113)
RESIDUE_PRIME, RESIDUE_EXPONENT = 5, 12
VERIFY_SIZES = (6, 8, 10, 12, 14)
VERIFY_BOUND = 64


def _draw_ring(kind, rng):
    """(ring string for --field, modulus of the coefficients, residue prime)."""
    if kind == "Q":
        return "Q", None, None
    if kind == "F":
        p = rng.choice(FIELD_PRIMES)
        return f"F{p}", p, p
    p = RESIDUE_PRIME
    return f"Z/{p}^{RESIDUE_EXPONENT}", p**RESIDUE_EXPONENT, p


def _draw_coeff(rng, prime, magnitude=2):
    """A nonzero coefficient that stays a unit modulo the prime.  Over Q only
    the sign is drawn: rational lifts slow down with the coefficient size, so
    a drawn magnitude would make the work depend on the seed."""
    if prime is None:
        return rng.choice((-magnitude, magnitude))
    while True:
        c = rng.randrange(1, max(prime, 50))
        if c % prime:
            return c


def dominated_variant(case, rng, prime):
    """The example plus the case's dominated terms with seeded coefficients."""
    terms = dict(EXAMPLES[case.example].terms)
    for slot, e in enumerate(case.extra):
        terms[e] = _draw_coeff(rng, prime, magnitude=2 + slot)
    return terms


def lift_requests(rng):
    requests = []
    for case in LIFT_CASES:
        ex = EXAMPLES[case.example]
        for kind, bounds in case.bounds.items():
            field_name, _, prime = _draw_ring(kind, rng)
            instance = f"{case.example}-{case.command}-{kind}"
            for rung, bound in enumerate(bounds):
                terms = dominated_variant(case, rng, prime)
                text = render(terms, ex.names)
                argv = ["weierstrass" if case.command == "weier" else "factor",
                        "--vars", ",".join(ex.names), "--field", field_name,
                        "--bound", str(bound), text]
                if case.command == "split":
                    argv += ["--split", ex.split]
                expect = {
                    "check": "lift", "code": 0,
                    "verdict": "factored" if case.command == "weier" else "reducible",
                    "f": terms, "names": ex.names, "prime": prime,
                    "edge": case.edge, "bound": bound,
                }
                requests.append(Request(tuple(argv), instance, bound, rung, expect))
    for i, kind in enumerate(("Q", "F", "Z", "Q")):
        requests.extend(_verify_instance(rng, kind, i))
    return requests + padic_requests(rng)


def _verify_instance(rng, kind, index):
    """``verify`` on an exact product f = g*h: the full, untruncated product of
    two large operands, so it exercises the product code differently from the
    truncated lifts.  The supports of g and h come from a fixed stream (the
    size of f sets the work); the seed draws their coefficients."""
    field_name, modulus, prime = _draw_ring(kind, rng)
    names = ("x", "y", "z")
    shapes = random.Random(f"template:verify-{index}")
    out = []
    for rung, size in enumerate(VERIFY_SIZES):
        g, h = {}, {}
        for factor in (g, h):
            while len(factor) < size:
                factor[tuple(shapes.randint(0, 6) for _ in range(3))] = None
            for e in factor:
                factor[e] = _draw_coeff(rng, prime, magnitude=rng.randint(1, 9))
        f = poly_mul(g, h, modulus)
        argv = ("verify", "--vars", ",".join(names), "--field", field_name,
                "--bound", str(VERIFY_BOUND), render(f, names), render(g, names),
                render(h, names))
        out.append(Request(argv, f"verify{index}-{kind}", size, rung,
                           {"check": "verify", "code": 0}))
    return out


# -- padic ladders of the lift workload: monic integer polynomials over a convex
# valuation chain.  They run the cofactor solves, graded slices and linalg
# through the dense p-adic loop and bypass SparsePoly.mul. -----------------------

PADIC_PRIMES = (2, 3, 5, 7)
PADIC_DEGREES = (4, 5, 6, 7, 8)
PADIC_PRECISIONS = (12, 24, 48, 96)
PADIC_INSTANCES = 25          # every (prime, degree) pair, five twice
PADIC_MAX_CONSTANT_VALUATION = 10   # below the smallest precision


def padic_chain(rng, degree):
    """Valuations v(j), 0 <= j <= degree, of a convex chain with two compact
    edges: slope -a on [0, j1], slope -b on [j1, degree], a > b >= 1, and
    v(degree) = 0 for the monic leading term."""
    while True:
        j1 = rng.randint(1, degree - 1)
        a, b = rng.choice(((2, 1), (3, 1), (3, 2)))
        chain = [b * (degree - j) if j >= j1 else b * (degree - j1) + a * (j1 - j)
                 for j in range(degree + 1)]
        if chain[0] <= PADIC_MAX_CONSTANT_VALUATION:
            return chain, j1


def padic_valuations(index, degree):
    """v_p(a_j) of instance ``index``, drawn from a fixed stream: on the chain
    at its three vertices, on or above it elsewhere."""
    rng = random.Random(f"template:padic-{index}")
    chain, j1 = padic_chain(rng, degree)
    return [chain[j] + (0 if j in (0, j1, degree) else rng.choice((0, 0, 1, 2)))
            for j in range(degree + 1)]


def padic_polynomial(rng, p, valuations):
    """Monic integer coefficients, constant term first, with the given
    valuations and seeded units."""
    coeffs = []
    for v in valuations[:-1]:
        unit = rng.randrange(1, 50)
        while unit % p == 0:
            unit = rng.randrange(1, 50)
        coeffs.append(unit * p**v)
    return coeffs + [1]


def padic_requests(rng):
    requests = []
    for i in range(PADIC_INSTANCES):
        p = PADIC_PRIMES[i % len(PADIC_PRIMES)]
        degree = PADIC_DEGREES[i % len(PADIC_DEGREES)]
        valuations = padic_valuations(i, degree)
        for rung, prec in enumerate(PADIC_PRECISIONS):
            coeffs = padic_polynomial(rng, p, valuations)
            text = render({(j,): c for j, c in enumerate(coeffs) if c}, ("y",))
            argv = ("padic", "-p", str(p), "--prec", str(prec), text)
            expect = {"check": "padic", "code": 0, "verdict": "factors",
                      "coeffs": coeffs, "p": p, "k": prec}
            requests.append(Request(argv, f"padic{i}-p{p}-d{degree}", prec, rung, expect))
    return requests


# -- geometry: supports for the Newton polyhedron ----------------------------------

GEOMETRY_SIZES = (6, 8, 10, 12, 14)
DENSE_POWERS = (1, 2, 3)          # support sizes 4, 10, 20
HYPERPLANE_DEGREE = 12
BOX_SIDE = {3: 8, 4: 6}
# (kind, nvars, instances): near-hyperplane supports have many vertices and
# loose edges; box supports and dense powers are mostly dominated points.
GEOMETRY_MIX = (("hyperplane", 3, 3), ("box", 3, 13), ("box", 4, 3), ("dense", 3, 3))
NAMES4 = ("x", "y", "z", "w")


def hyperplane_point(rng, nvars):
    """A point of total degree HYPERPLANE_DEGREE, pushed off the hyperplane by
    1-2 in one coordinate a third of the time."""
    cuts = sorted(rng.randint(0, HYPERPLANE_DEGREE) for _ in range(nvars - 1))
    point = [b - a for a, b in zip([0] + cuts, cuts + [HYPERPLANE_DEGREE])]
    point[rng.randrange(nvars)] += rng.choice((0, 0, 0, 0, 1, 2))
    return tuple(point)


def box_point(rng, nvars):
    return tuple(rng.randint(0, BOX_SIDE[nvars]) for _ in range(nvars))


def template_support(kind, nvars, index):
    """The point list of one geometry instance, drawn from a fixed stream.

    The LP work of a support depends on its vertex and edge counts, which vary
    several-fold between random draws; drawing the point lists once keeps that
    work the same for every workload seed.  The seed then translates the
    support, which changes the numbers in every LP but not the polyhedron's
    combinatorics.  (A coordinate permutation would too, but it changes the
    simplex's pivot order and so the work: drawn per request, it tripled the
    ten-seed spread of the median latency.)
    """
    rng = random.Random(f"template:{kind}{nvars}-{index}")
    draw = hyperplane_point if kind == "hyperplane" else box_point
    points = []
    while len(points) < GEOMETRY_SIZES[-1]:
        point = draw(rng, nvars)
        if point not in points:
            points.append(point)
    return points


def _dense_instance(rng, names, instance):
    for rung, n in enumerate(DENSE_POWERS):
        linear = {(1, 0, 0): rng.randint(1, 9), (0, 1, 0): rng.randint(1, 9),
                  (0, 0, 1): rng.randint(1, 9), (0, 0, 0): rng.randint(1, 9)}
        base = render(linear, names)
        f = poly_pow(linear, n)
        argv = ("analyze", "--vars", ",".join(names), f"({base})^{n}")
        yield Request(argv, instance, len(f), rung,
                      {"check": "geometry", "code": 0, "f": f, "names": names})


def geometry_requests(rng):
    requests = []
    for kind, nvars, count in GEOMETRY_MIX:
        names = NAMES4[:nvars]
        for i in range(count):
            instance = f"{kind}{nvars}-{i}"
            if kind == "dense":
                requests.extend(_dense_instance(rng, names, instance))
                continue
            template = template_support(kind, nvars, i)
            for rung, size in enumerate(GEOMETRY_SIZES):
                shift = [rng.randint(0, 2) for _ in range(nvars)]
                f = {tuple(x + s for x, s in zip(p, shift)):
                     rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9))
                     for p in template[:size]}
                argv = ("analyze", "--vars", ",".join(names), render(f, names))
                requests.append(Request(argv, instance, size, rung,
                                        {"check": "geometry", "code": 0, "f": f,
                                         "names": names}))
    return requests
