import json
from pathlib import Path

import pytest

from edgelift import VarTable, lift, newton, parse, rationals
from edgelift.cli import main
from edgelift.grading import orthogonal_basis

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())

EXAMPLE1 = "x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2"
EXAMPLE2 = "x*y*z + x^3*y^3 + x^3*z^3 + y^3*z^3"
DIVISIBILITY_F = "x3^3 + x1*x2*x3^2 + x1*x2*x3 + x1^2*x2^2"
F4 = "y^3 + 270*y + 540"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_analyze_example1(capsys):
    code, report = run(capsys, ["analyze", EXAMPLE1])
    assert code == 0
    assert report["vertices"] == [[0, 0, 4], [6, 2, 0]]
    edges = report["edges"]
    assert len(edges) == 1 and edges[0]["loose"]
    assert edges[0]["restriction"] == "-z^4 + x^6*y^2"


def test_analyze_example2(capsys):
    code, report = run(capsys, ["analyze", EXAMPLE2])
    assert code == 0
    assert sum(1 for e in report["edges"] if e["loose"]) == 3
    assert report["polygonal"] is True


def test_analyze_monomial(capsys):
    code, report = run(capsys, ["analyze", "x^2"])
    assert code == 0
    assert report["vertices"] == [[2, 0, 0]]
    assert report["edges"] == []


def test_analyze_parse_error_exits_3(capsys):
    code = main(["analyze", "x +"])
    assert code == 3


def test_restrict_command(capsys):
    code, report = run(capsys, ["restrict", EXAMPLE1, "--edge", "0"])
    assert code == 0
    assert report["restriction"] == "-z^4 + x^6*y^2"
    assert report["univariate"] == ["-1", "0", "1"]


def test_factor_with_rejected_split(capsys):
    code, report = run(capsys, [
        "factor", DIVISIBILITY_F, "--vars", "x1,x2,x3",
        "--split", "x2*(x3+x1*x2),x1"])
    assert code == 2
    assert report["verdict"] == "invalid_split"
    assert report["reason"] == "DivisibleByVariable"


def test_factor_exact_split(capsys):
    code, report = run(capsys, [
        "factor", DIVISIBILITY_F, "--vars", "x1,x2,x3",
        "--split", "x3+x1*x2,x1*x2", "--bound", "30"])
    assert code == 0
    assert report["verdict"] == "reducible"
    assert report["g"] == "x3 + x1*x2"
    assert report["h"] == "x3^2 + x1*x2"
    assert report["certificate"]["exit_min_weight"] is None


def test_factor_example1_automatic(capsys):
    code, report = run(capsys, ["factor", EXAMPLE1, "--bound", "40"])
    assert code == 0
    assert report["verdict"] == "reducible"


def test_factor_prime_power_exit2(capsys):
    code, report = run(capsys, ["factor", "x + y", "--vars", "x,y"])
    assert code == 2
    assert report["verdict"] == "edge_prime_power"
    assert report["power"] == 1


def test_factor_edge_without_split(capsys):
    # golden/factor_edge_without_split.out pins the lift through edge 1
    code, _ = run(capsys, ["factor", DIVISIBILITY_F, "--vars", "x1,x2,x3", "--edge", "2"])
    assert code == 3
    code, report = run(capsys, ["factor", "x^2 - 2*x*y + y^2", "--vars", "x,y",
                                "--edge", "0"])
    assert code == 2
    assert report["verdict"] == "edge_prime_power"
    assert report["power"] == 2
    # a prime-power restriction on an edge that is not loose is not lifted
    code, out = run(capsys, ["factor", "x + y + z", "--edge", "0"])
    assert code == 2 and out == ""


def test_padic_p2(capsys):
    code, report = run(capsys, ["padic", "-p", "2", "--prec", "32", F4])
    assert code == 0
    assert report["verdict"] == "factors"
    assert sorted(report["polygon_vertices"]) == [[0, 3], [1, 1], [2, 0]]
    assert len(report["factors"]) == 2


def test_padic_p3(capsys):
    code, report = run(capsys, ["padic", "-p", "3", "--prec", "8", F4])
    assert code == 2
    assert report["verdict"] == "no_coprime_split"
    assert report["factor"] == "y + 2*p"
    assert report["power"] == 3


def test_padic_p5(capsys):
    code, report = run(capsys, ["padic", "-p", "5", "--prec", "8", F4])
    assert code == 2
    assert report["verdict"] == "no_coprime_split"


@pytest.mark.parametrize("text", ["2^5*y + 32", "0"])
def test_padic_zero_in_residue_ring_exits_3(text, capsys):
    # Both inputs vanish in Z/2^5, so the polygon does not exist.
    code = main(["padic", "-p", "2", "--prec", "5", text])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "the zero polynomial has no Newton polygon"}


def test_verify_pass_and_fail(capsys):
    code, report = run(capsys, [
        "verify", "x^2 - y^2", "x - y", "x + y", "--vars", "x,y", "--bound", "5"])
    assert code == 0 and report["pass"] is True

    code, report = run(capsys, [
        "verify", "x^2 - y^2", "x - y", "x + y + 1", "--vars", "x,y", "--bound", "5"])
    assert code == 1 and report["pass"] is False
    assert report["residual_min_weight"] == 1


def test_verify_with_edge_weights(capsys):
    code, report = run(capsys, ["factor", EXAMPLE1, "--bound", "40"])
    assert code == 0
    code2, verdict = run(capsys, [
        "verify", EXAMPLE1, report["g"], report["h"],
        "--bound", "40", "--edge", "0"])
    assert code2 == 0 and verdict["pass"] is True


def test_weierstrass_command(capsys):
    code, report = run(capsys, [
        "weierstrass", "y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18",
        "--vars", "x1,x2,y", "--bound", "30"])
    assert code == 0
    assert report["verdict"] == "factored"
    assert report["g"].startswith("y")
    assert report["residual_within_bound"] == "0"
    assert report["division_remainder"] == "0"


def test_weierstrass_invalid_split(capsys):
    code, report = run(capsys, ["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y",
                                "--split", "y-x,y-x"])
    assert code == 2
    assert report == {"verdict": "invalid_split", "reason": "ProductMismatch"}


def test_file_input(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text(EXAMPLE1)
    code, report = run(capsys, ["analyze", "--file", str(path)])
    assert code == 0
    assert len(report["edges"]) == 1


def test_text_format(capsys):
    code = main(["analyze", EXAMPLE1, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "polygonal: True" in out


def test_factor_output_repeats(capsys):
    main(["factor", EXAMPLE1, "--bound", "40"])
    first = capsys.readouterr().out
    main(["factor", EXAMPLE1, "--bound", "40"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_golden_output(case, capsys):
    """Byte-exact stdout and exit code of each request in golden/cases.json;
    the expected stdout is golden/<name>.out."""
    code = main(case["argv"])
    assert capsys.readouterr().out == (GOLDEN / f"{case['name']}.out").read_text()
    assert code == case["exit"]


def test_one_polyhedron_per_request(monkeypatch, capsys):
    builds = []
    original = newton.build_from_support

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(newton, "build_from_support", counting)

    def count(argv):
        builds.clear()
        main(argv)
        capsys.readouterr()
        return len(builds)

    assert count(["factor", DIVISIBILITY_F, "--vars", "x1,x2,x3",
                  "--split", "x3+x1*x2,x1*x2"]) == 1
    assert count(["factor", DIVISIBILITY_F, "--vars", "x1,x2,x3", "--edge", "1"]) == 1
    assert count(["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y", "--bound", "6"]) == 1
    assert count(["factor", EXAMPLE1, "--bound", "12"]) == 1


def test_automatic_factor_bounds_with_the_lifted_edge(monkeypatch, capsys):
    # EXAMPLE2's three loose edges have pairwise different xi0 weights; the
    # split is forced onto the last of them, so the reported g*h must clear
    # the bound in that edge's weights
    vt = VarTable(("x", "y", "z"))
    f = parse(EXAMPLE2, vt, rationals())
    loose = [e for e in newton.build(f).edges if e.loose]
    assert len({orthogonal_basis(e.direction).xi0 for e in loose}) == 3
    first_split = lift._first_split
    monkeypatch.setattr(lift, "_first_split",
                        lambda poly, edges, monic_last=False:
                        first_split(poly, edges[-1:], monic_last))
    code, report = run(capsys, ["factor", EXAMPLE2, "--bound", "12"])
    assert code == 0 and report["verdict"] == "reducible"
    assert report["edge"] == loose[-1].to_dict()
    g, h = (parse(report[k], vt, rationals()) for k in ("g", "h"))
    residual = f - g * h
    assert residual.min_weighted_degree(orthogonal_basis(loose[-1].direction).xi0) > 12


@pytest.mark.parametrize("argv", [
    ["--vars", "x,y,z", "--edge", "0", "y*z^3 + x^3*z^3 + y*z"],
    ["--edge", "0", "y^2 + x^3*z^2 + x^2*y^2*z^2"],
])
def test_weierstrass_edge_must_be_descendant(argv, capsys):
    # both edges are loose but not descendant: no split is chosen for them
    code = main(["weierstrass"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"].endswith("is not descendant")


@pytest.mark.parametrize("argv", [
    ["factor", "x + y + z"],                                     # no loose edge
    ["factor", "x + y", "--vars", "x,y"],                        # prime power
    ["factor", EXAMPLE1],                                        # lifts
    ["factor", EXAMPLE1, "--edge", "0", "--split", "x^3*y - z^2,x^3*y + z^2"],
    ["weierstrass", "y^2 + x^3 + z^3"],                          # no descendant edge
    ["weierstrass", "y^2 - 2*x*y + x^2 + x^3", "--vars", "x,y"],  # prime power
    ["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y"],         # lifts
])
def test_negative_bound_exits_3_before_any_work(argv, capsys):
    code = main(argv + ["--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {"error": "truncation bound must be nonnegative"}


def test_weierstrass_split_with_a_degree_0_monic_part(capsys):
    # G = 1 is monic of y-degree 0: the unit is f itself and g = 1
    code, report = run(capsys, ["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y",
                                "--split", "1,y^2 - x^2"])
    assert code == 0 and report["verdict"] == "factored"
    assert (report["g"], report["h"], report["unit"]) == ("1", "y^2 - x^2 + x^3", "1")
