"""Tests of the benchmark itself: input construction, checker and tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys

import pytest

import checker
import run
import tracing
import workloads
from polyarith import parse_rendered, poly_mul, render

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def cli():
    return run.import_edgelift()


def _on_compact_face(point, support, n):
    """Some strictly positive xi is minimised at point over the support."""
    ineqs = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ineqs += [[u[j] - point[j] for j in range(n)] for u in support if u != point]
    return oracles.cone_strict_point_exists([], ineqs, range(n), n)


def _oracle_geometry(support, n):
    vertices = oracles.oracle_vertices(support, n)
    edges = oracles.oracle_edges(vertices, n)
    loose = {e: oracles.oracle_is_loose(*e, vertices, n) for e in edges}
    return vertices, loose


@pytest.mark.parametrize("seed", SEEDS)
def test_dominated_terms_leave_the_polyhedron_alone(seed):
    seen = set()
    for request in workloads.build("lift", seed):
        expect = request.expect
        if expect["check"] != "lift" or request.instance in seen:
            continue
        seen.add(request.instance)
        case = next(c for c in workloads.LIFT_CASES
                    if request.instance.startswith(f"{c.example}-{c.command}-"))
        example = workloads.EXAMPLES[case.example]
        support = sorted(expect["f"])
        for extra in case.extra:
            assert extra in expect["f"]
            assert not _on_compact_face(extra, support, 3), (request.instance, extra)
        assert _oracle_geometry(support, 3) == _oracle_geometry(sorted(example.terms), 3)
        vertices, loose = _oracle_geometry(support, 3)
        assert loose[case.edge], f"{case.edge} is not a loose edge of {case.example}"


@pytest.mark.parametrize("seed", SEEDS)
def test_padic_polygons_have_two_compact_edges(seed):
    for request in workloads.build("lift", seed):
        if request.expect["check"] != "padic":
            continue
        p, k = request.expect["p"], request.expect["k"]
        points = []
        for j, c in enumerate(request.expect["coeffs"]):
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            points.append((v, j))
        assert points[0][0] < k, "the constant term must survive mod p^k"
        vertices = oracles.oracle_vertices(points, 2)
        assert len(vertices) >= 3, (request.instance, points)


def test_same_seed_same_requests():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)


def test_variants_keep_the_ladders_and_change_the_inputs():
    for name in workloads.WORKLOADS:
        first, second = workloads.build(name, 5, 0), workloads.build(name, 5, 1)
        assert [(r.instance, r.size, r.rung) for r in first] == \
            [(r.instance, r.size, r.rung) for r in second]
        changed = sum(a.argv != b.argv for a, b in zip(first, second))
        assert changed > 0.9 * len(first)


def test_render_parse_round_trip():
    f = {(2, 0, 1): 3, (0, 0, 0): -7, (1, 1, 1): 1, (0, 4, 0): -1}
    back = parse_rendered(render(f, ("x1", "x2", "y")), ("x1", "x2", "y"))
    assert back == f
    assert parse_rendered("-3/4*x^2 + y - 5", ("x", "y")) == {(2, 0): -0.75, (0, 1): 1, (0, 0): -5}


def _first(workload, kind, rung=0):
    return next(r for r in workloads.build(workload, 1)
                if r.expect["check"] == kind and r.rung == rung)


def _run_and_check(cli, request, edit=None):
    """Check a request's real output, or that output after ``edit`` changed
    its JSON report in place."""
    _, code, out, _ = run.call(cli.main, request.argv)
    if edit:
        report = json.loads(out)
        edit(report)
        out = json.dumps(report)
    grading = sys.modules["edgelift.grading"]
    return checker.check(request, code, out, grading, oracles)


def test_checker_accepts_and_rejects_lifts(cli):
    request = _first("lift", "lift")
    assert _run_and_check(cli, request) is None

    def drop_first_term(report):
        report["g"] = report["g"].split(" + ", 1)[1]
    assert "do not multiply to f" in _run_and_check(cli, request, drop_first_term)

    def drop_last_term(report):
        report["g"] = report["g"].rsplit(" + ", 1)[0]
    assert "at or below bound" in _run_and_check(cli, request, drop_last_term)

    f = render(request.expect["f"], request.expect["names"])
    for g, h in ((f, "1"), ("1", f)):
        def trivial(report, g=g, h=h):
            report["g"], report["h"] = g, h
        assert "trivial split" in _run_and_check(cli, request, trivial)


def test_checker_accepts_and_rejects_padic(cli):
    request = _first("lift", "padic")
    assert _run_and_check(cli, request) is None

    def perturb(report):
        report["factors"][0] += " + y"
    assert "differs from f" in _run_and_check(cli, request, perturb)

    def trivial(report):
        coeffs = request.expect["coeffs"]
        report["factors"] = [render({(j,): c for j, c in enumerate(coeffs)}, ("y",))]
    assert "do not split" in _run_and_check(cli, request, trivial)


def test_checker_accepts_and_rejects_geometry(cli):
    request = _first("geometry", "geometry")
    assert _run_and_check(cli, request) is None

    def flip_first_edge(report):
        edge = report["edges"][0]
        edge["loose"] = not edge["loose"]
        report["polygonal"] = all(e["loose"] for e in report["edges"])
    assert "loose flag" in _run_and_check(cli, request, flip_first_edge)


def test_checker_product_is_independent_of_the_package():
    g = {(1, 0): 2, (0, 1): -1}
    h = {(1, 0): 1, (0, 0): 3}
    f = poly_mul(g, h)
    assert checker.low_residual(f, g, h, (1, 1), 10, None) == {}
    assert checker.low_residual(f, g, {(1, 0): 1}, (1, 1), 10, None) != {}


def _traced_counts(cli, requests):
    results = [run.Outcome() for _ in requests]
    tracer, _ = run.traced_pass(cli, requests, results)
    assert all(r.output(-1)[1] == 0 for r in results)
    values = tracer.metrics(run.certificate_steps(results), 1.0)
    return {name: values[name] for name in tracing.EXACT_COUNTS}


def test_traced_counts_repeat_exactly(cli):
    requests = [r for name in workloads.WORKLOADS for r in workloads.build(name, 7)
                if r.rung == 0][::3]
    first = _traced_counts(cli, requests)
    assert first == _traced_counts(cli, requests)
    assert first["lp.calls"] > 0 and first["poly.mul.term_pairs"] > 0
    assert first["grading.slice.calls"] > 0 and first["lift.steps"] > 0


def test_tracer_restores_the_package(cli):
    lift, weier = sys.modules["edgelift.lift"], sys.modules["edgelift.weier"]
    original = lift.solve_cofactor, sys.modules["edgelift.poly"].SparsePoly.mul
    tracer = tracing.Tracer()
    tracer.install()
    assert weier.solve_cofactor is lift.solve_cofactor is not original[0]
    tracer.uninstall()
    assert (lift.solve_cofactor, sys.modules["edgelift.poly"].SparsePoly.mul) == original
    assert weier.solve_cofactor is lift.solve_cofactor
