"""Command-line front end.

Subcommands: analyze | restrict | factor | weierstrass | padic | verify.
Exit codes: 0 success/reducible, 1 verification failure, 2 hypothesis
violation or inconclusive verdict, 3 input error.  JSON output renders all
ring elements as exact strings; lattice data stays integral.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import expr, lift, newton, weier
from .coeffs import NotInvertible, RingDescriptor, residue_ring
from .grading import NoMixedSigns, orthogonal_basis
from .poly import SparsePoly, WeightedBound
from .unifactor import DegreeTooLarge, UnsupportedRing

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgelift",
        description="Newton polyhedra, loose edges, and truncated factorization lifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("expression", nargs="?", help="polynomial expression")
    common.add_argument("--file", help="read the expression from a file instead")
    common.add_argument("--vars", default="x,y,z",
                        help="comma-separated variable names (default x,y,z)")
    common.add_argument("--field", default="Q",
                        help="coefficient ring: Q, F<p>, or Z/<p>^<k> (default Q)")
    common.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", parents=[common],
                       help="polyhedron report: vertices, edges, restrictions")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("restrict", parents=[common],
                       help="symbolic restriction to one edge")
    p.add_argument("--edge", type=int, default=0, help="edge index (default 0)")
    p.set_defaults(handler=cmd_restrict)

    p = sub.add_parser("factor", parents=[common],
                       help="factor through a loose edge")
    p.add_argument("--edge", type=int, help="edge index (default: automatic)")
    p.add_argument("--split", help="explicit split 'G,H' over the residue field")
    p.add_argument("--bound", type=int, default=32, help="weighted bound N (default 32)")
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("weierstrass", parents=[common],
                       help="monic pipeline in the last variable")
    p.add_argument("--edge", type=int, help="edge index (default: first descendant)")
    p.add_argument("--split", help="explicit split 'G,H' with G monic in the last variable")
    p.add_argument("--bound", type=int, default=32)
    p.set_defaults(handler=cmd_weierstrass)

    p = sub.add_parser("padic", parents=[common],
                       help="Newton-polygon factorization over Z/p^k")
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("--prec", type=int, default=64, help="precision k (default 64)")
    p.set_defaults(handler=cmd_padic)

    p = sub.add_parser("verify", parents=[common],
                       help="check that f - g*h has no term up to the bound")
    p.add_argument("g_expr")
    p.add_argument("h_expr")
    p.add_argument("--bound", type=int, default=32)
    p.add_argument("--edge", type=int,
                   help="take the weight vector from this edge of Delta(f); "
                        "default: all-ones (total degree)")
    p.set_defaults(handler=cmd_verify)
    return parser


def _load_expression(args):
    if args.file:
        with open(args.file) as handle:
            return handle.read()
    if args.expression is None:
        raise expr.ParseError(0, "an expression argument or --file")
    return args.expression


def _setup(args):
    ring = RingDescriptor.from_string(args.field)
    vars_ = expr.VarTable.split(args.vars)
    f = expr.parse(_load_expression(args), vars_, ring)
    return ring, vars_, f


def _emit(report, args):
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _emit_text(report)


def _emit_text(report, indent=""):
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                print(f"{indent}{key}[{i}]:")
                _emit_text(item, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _edge_report(f, vars_, np):
    out = []
    for e in np.edges:
        entry = e.to_dict()
        try:
            rest = lift.edge_restriction(f, e)
            entry["restriction"] = expr.render(rest.poly, vars_)
        except lift.EmptyFace:
            entry["restriction"] = "0"
        out.append(entry)
    return out


def cmd_analyze(args):
    ring, vars_, f = _setup(args)
    np = newton.build(f)
    report = {
        "ring": str(ring),
        "vars": list(vars_.names),
        "vertices": [list(v) for v in np.vertices],
        "edges": _edge_report(f, vars_, np),
        "polygonal": newton.is_polygonal(np),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_restrict(args):
    ring, vars_, f = _setup(args)
    np = newton.build(f)
    edge = _pick_edge(np, args.edge)
    rest = lift.edge_restriction(f, edge)
    report = {
        "edge": edge.to_dict(),
        "restriction": expr.render(rest.poly, vars_),
        "content": list(rest.content),
        "univariate": [str(c) for c in rest.univariate],
    }
    _emit(report, args)
    return EXIT_OK


def _pick_edge(np, index):
    if not np.edges:
        raise newton.NotAnEdge("the polyhedron has no compact edges")
    if not (0 <= index < len(np.edges)):
        raise newton.NotAnEdge(f"edge index {index} out of range (have {len(np.edges)})")
    return np.edges[index]


def _parse_split(args, vars_, ring):
    """The --split 'G,H' request over the residue field, or None without one."""
    if args.split is None:
        return None
    parts = args.split.split(",")
    if len(parts) != 2:
        raise expr.ParseError(0, "--split of the form 'G,H'")
    K = ring.residue_field()
    return lift.SplitRequest(expr.parse(parts[0], vars_, K), expr.parse(parts[1], vars_, K))


def _reducible_report(edge, g, h, cert, vars_):
    return {
        "verdict": "reducible",
        "edge": edge.to_dict(),
        "g": expr.render(g, vars_),
        "h": expr.render(h, vars_),
        "certificate": cert.to_dict(),
    }


def _prime_power_report(power, vars_):
    return {
        "verdict": "edge_prime_power",
        "edge": power.edge.to_dict(),
        "factor": expr.render(power.factor, vars_),
        "power": power.power,
        "unit": str(power.unit),
    }


def _edge_and_split(f, edges, split, monic_last=False):
    """The edge to lift and its split.

    Given a split, the edge of ``edges`` whose restriction equals G*H, else
    the first.  Without one, the first edge with a coprime split together
    with that split, or the first edge with its EdgePrimePower."""
    if split is not None:
        if len(edges) > 1:
            product = split.G * split.H
            for edge in edges:
                try:
                    if lift.edge_restriction(f, edge).poly == product:
                        return edge, split
                except lift.EmptyFace:
                    continue
        return edges[0], split
    rest, chosen = lift._first_split(f, edges, monic_last)
    return rest.edge, chosen


def _check_bound(args):
    if args.bound < 0:
        raise ValueError("truncation bound must be nonnegative")


def cmd_factor(args):
    _check_bound(args)
    ring, vars_, f = _setup(args)
    np = newton.build(f)
    split = _parse_split(args, vars_, ring)
    if args.edge is not None:
        edges = [_pick_edge(np, args.edge)]
        if not edges[0].loose:
            raise lift.NotLoose(f"edge {edges[0].a}-{edges[0].b} is not loose")
    else:
        edges = [e for e in np.edges if e.loose]
        if not edges:
            _emit({"verdict": "no_loose_edge"}, args)
            return EXIT_INCONCLUSIVE
    edge, split = _edge_and_split(f, edges, split)
    if isinstance(split, lift.EdgePrimePower):
        _emit(_prime_power_report(split, vars_), args)
        return EXIT_INCONCLUSIVE
    try:
        g, h, cert = lift.lift_factorization(f, edge, split, args.bound)
    except lift.InvalidSplit as err:
        _emit({"verdict": "invalid_split", "reason": err.reason}, args)
        return EXIT_INCONCLUSIVE
    _emit(_reducible_report(edge, g, h, cert, vars_), args)
    return EXIT_OK


def cmd_weierstrass(args):
    _check_bound(args)
    ring, vars_, f = _setup(args)
    wi = weier.WeierstrassInput(f)
    split = _parse_split(args, vars_, ring)
    if args.edge is not None:
        edges = [_pick_edge(newton.build(f), args.edge)]
        weier._require_descendant(edges[0])
    else:
        edges = weier.descendant_loose_edges(wi)
        if not edges:
            _emit({"verdict": "no_descendant_loose_edge"}, args)
            return EXIT_INCONCLUSIVE
    # without a split only the first descendant edge is tried
    edge, split = _edge_and_split(f, edges if split is not None else edges[:1], split,
                                  monic_last=True)
    if isinstance(split, lift.EdgePrimePower):
        _emit({
            "verdict": "no_coprime_split",
            "edge": edge.to_dict(),
            "factor": expr.render(split.factor, vars_),
            "power": split.power,
        }, args)
        return EXIT_INCONCLUSIVE
    try:
        gbar, hbar, cert = weier.lift_monic(wi, edge, split, args.bound)
    except lift.InvalidSplit as err:
        _emit({"verdict": "invalid_split", "reason": err.reason}, args)
        return EXIT_INCONCLUSIVE
    ws = orthogonal_basis(edge.direction)
    bound = WeightedBound(ws.xi0, args.bound)
    d = max(e[-1] for e in split.G.terms)
    bound_x = weier.weight_to_x_bound(ws, args.bound)
    unit, g = weier.weierstrass_normalize(gbar, d, bound_x)
    h, remainder = weier.poly_divide(f, g, bound_x)
    residual = (f - g.mul(h, bound)).truncate(bound)
    report = {
        "verdict": "factored",
        "edge": edge.to_dict(),
        "g": expr.render(g, vars_),
        "h": expr.render(h, vars_),
        "unit": expr.render(unit, vars_),
        "division_remainder": expr.render(remainder, vars_),
        "residual_within_bound": expr.render(residual, vars_),
        "certificate": cert.to_dict(),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_padic(args):
    vars_ = expr.VarTable(("y",))
    plane_vars = expr.VarTable(("p", "y"))
    ring = residue_ring(args.prime, args.prec)
    f = expr.parse(_load_expression(args), vars_, ring)
    coeffs = [0] * (max((e[0] for e in f.terms), default=0) + 1)
    for e, c in f.terms.items():
        coeffs[e[0]] = int(c)
    pp = weier.PadicPoly(tuple(coeffs), args.prime, args.prec)
    verdict = weier.padic_newton_factor(pp)
    base = {
        "p": args.prime,
        "k": args.prec,
        "modulus": str(args.prime**args.prec),
        "polygon_vertices": [list(v) for v in verdict.polygon.vertices],
    }
    if isinstance(verdict, weier.PadicFactors):
        factors = []
        for cs in verdict.factors:
            poly = _dense_to_poly(cs, ring)
            factors.append(expr.render(poly, vars_))
        base.update({
            "verdict": "factors",
            "edge": verdict.edge.to_dict(),
            "restriction": expr.render(verdict.restriction, plane_vars),
            "factors": factors,
            "certificate": verdict.certificate.to_dict(),
        })
        _emit(base, args)
        return EXIT_OK
    if isinstance(verdict, weier.NoCoprimeSplit):
        base.update({
            "verdict": "no_coprime_split",
            "edge": verdict.edge.to_dict(),
            "factor": expr.render(verdict.factor, plane_vars),
            "power": verdict.power,
        })
        _emit(base, args)
        return EXIT_INCONCLUSIVE
    base.update({"verdict": "no_loose_edge"})
    _emit(base, args)
    return EXIT_INCONCLUSIVE


def _dense_to_poly(coeffs, ring):
    return SparsePoly(1, ring, {(j,): c for j, c in enumerate(coeffs)})


def cmd_verify(args):
    ring, vars_, f = _setup(args)
    g = expr.parse(args.g_expr, vars_, ring)
    h = expr.parse(args.h_expr, vars_, ring)
    if args.edge is not None:
        np = newton.build(f)
        edge = _pick_edge(np, args.edge)
        weights = orthogonal_basis(edge.direction).xi0
    else:
        weights = (1,) * f.nvars
    residual = f - g * h
    min_weight = residual.min_weighted_degree(weights)
    passed = min_weight is None or min_weight > args.bound
    _emit({
        "pass": passed,
        "weights": list(weights),
        "bound": args.bound,
        "residual_min_weight": min_weight,
    }, args)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (lift.LiftError, NoMixedSigns, UnsupportedRing, DegreeTooLarge) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (expr.ExprError, NotInvertible, newton.ZeroPolynomial,
            newton.NotAnEdge, ValueError, OSError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
