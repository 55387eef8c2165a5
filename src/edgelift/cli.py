"""Command-line front end.

Subcommands: analyze | restrict | factor | weierstrass | padic | verify.
``factor`` and ``weierstrass`` lift the restriction that lift._first_split
picks among the --edge, or else every loose (``factor``) or descendant loose
(``weierstrass``) edge, and print one report shape: its certificate's
exit_min_weight, the least xi0 weight of f - g*h in the residue field, lies
above --bound (``verify --edge`` checks it).  Each cmd_* handler returns
(report, exit code), and main() alone writes a report to stdout: the
handler's, or the verdict ``invalid_split`` for an InvalidSplit, whichever
step raised it.  A reader that closes stdout early does not change the exit
code.  A negative --bound is an input error.
Exit codes: 0 success/reducible, 1 verification failure, 2 hypothesis
violation or inconclusive verdict, 3 input error, 4 output error (a write
to stdout failed other than by a closed pipe).  JSON output renders all
ring elements as exact strings; lattice data stays integral.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import expr, lift, newton, weier
from .coeffs import NotInvertible, RingDescriptor, residue_ring
from .grading import NoMixedSigns, orthogonal_basis
from .poly import SparsePoly
from .unifactor import DegreeTooLarge, UnsupportedRing

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_OUTPUT_ERROR = 4


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
    p.add_argument("--edge", type=int, help="edge index (default: automatic)")
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
    """Ring, variables and polynomial."""
    ring = RingDescriptor.from_string(args.field)
    vars_ = expr.VarTable.split(args.vars)
    f = expr.parse(_load_expression(args), vars_, ring)
    return ring, vars_, f


def _refuse_unprintable_modulus(ring, option):
    """ValueError naming ``option`` when str() cannot convert p^k.  Limit 0
    (or a Python without one) means no limit, and p^k >= 2^k > 10^limit
    once k > 4*limit, so p^k is not formed then."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and ring.k and (ring.k > 4 * limit or ring.modulus >= 10**limit):
        raise ValueError(f"{option}: {ring.p}^{ring.k} has more than {limit} decimal digits, "
                         "past this interpreter's int-to-string limit")


def _emit(report, args):
    if args.format == "json":
        print(_json_text(report))
    else:
        _emit_text(report)


def _json_text(value):
    """The text of ``json.dumps(value, indent=2)`` for a report, written
    directly: json encodes in C only without an indent, and its generator
    encoder costs a long report about twice as much.  Dicts have str keys,
    as a report's do.  Strings are quoted by json's own helper and ints
    printed by int.__repr__, as json does; a value that is neither a str,
    an int nor a container is a scalar json.dumps writes alone (or refuses
    with its TypeError)."""
    out = []
    put = out.append

    def walk(value, indent):
        cls = value.__class__
        if cls is str:
            put(_quote(value))
        elif cls is int:
            put(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = indent + "  "
            sep, comma = "{" + inner, "," + inner
            for key, item in value.items():
                put(sep)
                put(_quote(key))
                put(": ")
                walk(item, inner)
                sep = comma
            put(indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = indent + "  "
            sep, comma = "[" + inner, "," + inner
            for item in value:
                put(sep)
                walk(item, inner)
                sep = comma
            put(indent + "]")
        else:
            put(json.dumps(value))

    walk(value, "\n")
    return "".join(out)


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
    return {
        "ring": str(ring),
        "vars": list(vars_.names),
        "vertices": [list(v) for v in np.vertices],
        "edges": _edge_report(f, vars_, np),
        "polygonal": newton.is_polygonal(np),
    }, EXIT_OK


def cmd_restrict(args):
    ring, vars_, f = _setup(args)
    edge = _pick_edge(newton.build(f), args.edge)
    rest = lift.edge_restriction(f, edge)
    return {
        "edge": edge.to_dict(),
        "restriction": expr.render(rest.poly, vars_),
        "content": list(rest.content),
        "univariate": [str(c) for c in rest.univariate],
    }, EXIT_OK


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


def _power_report(verdict, power, vars_):
    """The prime-power verdict: the restriction of f to power.edge is a
    power of power.factor, rendered in vars_."""
    return {
        "verdict": verdict,
        "edge": power.edge.to_dict(),
        "factor": expr.render(power.factor, vars_),
        "power": power.power,
    }


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
    else:
        edges = [e for e in np.edges if e.loose]
        if not edges:
            return {"verdict": "no_loose_edge"}, EXIT_INCONCLUSIVE
    rest, split = lift._first_split(f, edges, split)
    if isinstance(split, lift.EdgePrimePower):
        report = _power_report("edge_prime_power", split, vars_)
        report["unit"] = str(split.unit)
        return report, EXIT_INCONCLUSIVE
    g, h, cert = lift.lift_factorization(f, rest, split, args.bound)
    return {
        "verdict": "reducible",
        "edge": rest.edge.to_dict(),
        "g": expr.render(g, vars_),
        "h": expr.render(h, vars_),
        "certificate": cert.to_dict(),
    }, EXIT_OK


def cmd_weierstrass(args):
    _check_bound(args)
    ring, vars_, f = _setup(args)
    wi = weier.WeierstrassInput(f)
    split = _parse_split(args, vars_, ring)
    if args.edge is not None:
        edges = [_pick_edge(newton.build(f), args.edge)]
    else:
        edges = weier.descendant_loose_edges(wi)
        if not edges:
            return {"verdict": "no_descendant_loose_edge"}, EXIT_INCONCLUSIVE
    rest, split = lift._first_split(f, edges, split, monic_last=True)
    if isinstance(split, lift.EdgePrimePower):
        return _power_report("no_coprime_split", split, vars_), EXIT_INCONCLUSIVE
    g, h, cert = weier.lift_monic(wi, rest, split, args.bound)
    return {
        "verdict": "factored",
        "edge": rest.edge.to_dict(),
        "g": expr.render(g, vars_),
        "h": expr.render(h, vars_),
        "certificate": cert.to_dict(),
    }, EXIT_OK


def cmd_padic(args):
    vars_ = expr.VarTable(("y",))
    plane_vars = expr.VarTable(("p", "y"))
    ring = residue_ring(args.prime, args.prec)
    _refuse_unprintable_modulus(ring, f"--prec {args.prec}")  # the report prints p^k
    f = expr.parse(_load_expression(args), vars_, ring)
    degree = max((e[0] for e in f.terms), default=0)
    pp = weier.PadicPoly(tuple(f.coeff((j,)) for j in range(degree + 1)),
                         args.prime, args.prec)
    verdict = weier.padic_newton_factor(pp)
    report = {
        "p": args.prime,
        "k": args.prec,
        "modulus": str(ring.modulus),
        "polygon_vertices": [list(v) for v in verdict.polygon.vertices],
    }
    if isinstance(verdict, weier.PadicFactors):
        report.update({
            "verdict": "factors",
            "edge": verdict.edge.to_dict(),
            "restriction": expr.render(verdict.restriction, plane_vars),
            "factors": [expr.render(SparsePoly(1, ring, {(j,): c for j, c in enumerate(cs)}),
                                    vars_)
                        for cs in verdict.factors],
            "certificate": verdict.certificate.to_dict(),
        })
        return report, EXIT_OK
    if isinstance(verdict, weier.NoCoprimeSplit):
        report.update(_power_report("no_coprime_split", verdict, plane_vars))
    else:
        report["verdict"] = "no_loose_edge"
    return report, EXIT_INCONCLUSIVE


def cmd_verify(args):
    _check_bound(args)
    ring, vars_, f = _setup(args)
    g = expr.parse(args.g_expr, vars_, ring)
    h = expr.parse(args.h_expr, vars_, ring)
    if args.edge is not None:
        edge = _pick_edge(newton.build(f), args.edge)
        weights = orthogonal_basis(edge.direction).xi0
    else:
        weights = (1,) * f.nvars
    residual = f - g * h
    min_weight = residual.min_weighted_degree(weights)
    passed = min_weight is None or min_weight > args.bound
    return {
        "pass": passed,
        "weights": list(weights),
        "bound": args.bound,
        "residual_min_weight": min_weight,
    }, EXIT_OK if passed else EXIT_VERIFY_FAILED


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except lift.InvalidSplit as err:
        report, code = {"verdict": "invalid_split", "reason": err.reason}, EXIT_INCONCLUSIVE
    except (lift.LiftError, NoMixedSigns, UnsupportedRing, DegreeTooLarge) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (expr.ExprError, NotInvertible, newton.ZeroPolynomial,
            newton.NotAnEdge, ValueError, OSError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; the verdict stands.  With fd 1 on
        # devnull the flush at interpreter exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
