import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgelift
from edgelift import VarTable, lift, newton, parse, rationals
from edgelift.cli import _json_text, build_parser, main
from edgelift.coeffs import RingDescriptor, residue_ring
from edgelift.grading import orthogonal_basis
from edgelift.poly import exp_dot

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())
# the benchmark's own dict arithmetic, which does not go through edgelift
_spec = importlib.util.spec_from_file_location(
    "perfbench_polyarith", Path(__file__).parents[1] / "perfbench" / "polyarith.py")
polyarith = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(polyarith)

EXAMPLE1 = "x^6*y^2 - z^4 + x*y*z^4 - x^7*y^5*z^2"
EXAMPLE2 = "x*y*z + x^3*y^3 + x^3*z^3 + y^3*z^3"
DIVISIBILITY_F = "x3^3 + x1*x2*x3^2 + x1*x2*x3 + x1^2*x2^2"
EXAMPLE3 = "y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18"
F4 = "y^3 + 270*y + 540"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def assert_lift_contract(argv, report):
    """The claim of a factor or weierstrass report, checked without
    SparsePoly.mul: f - g*h, with f parsed from argv and g*h formed from the
    printed g and h by perfbench/polyarith.py over the residue field (mod p
    over Z/p^k), has no term of xi0 weight up to --bound, and its least
    weight is the certificate's exit_min_weight (None when no term is left)."""
    args = build_parser().parse_args(argv)
    ring = RingDescriptor.from_string(args.field)
    names = args.vars.split(",")
    g, h = (polyarith.parse_rendered(report[key], names) for key in ("g", "h"))
    residual = {e: -c for e, c in polyarith.poly_mul(g, h).items()}
    for e, c in parse(args.expression, VarTable(names), ring).terms.items():
        residual[e] = residual.get(e, 0) + c
    residual = polyarith.reduce_terms(residual, ring.p or None)
    xi0 = orthogonal_basis(report["edge"]["dir"]).xi0
    weights = [exp_dot(xi0, e) for e in residual]
    cert = report["certificate"]
    assert cert["bound"] == args.bound
    assert all(weight > args.bound for weight in weights)
    assert min(weights, default=None) == cert["exit_min_weight"]


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


@pytest.mark.parametrize("text, position", [
    ("x + 1/0", 4), ("(" * 200 + "x" + ")" * 200, 100), ("0 + " + "-" * 1000, 1004)],
    ids=["zero_denominator", "deep_nesting", "minus_chain"])
def test_malformed_input_exits_3_with_its_position(capsys, text, position):
    code = main(["analyze", text])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"].endswith(f"(at position {position})")


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


# stdout of lifts deeper than the goldens (they stop at --prec 96): the README
# input, and the degree-8 chains of the benchmark's lift workload at seed 1
DEEP_PADIC = [
    ("2", "256", F4, 4123, "a7a12f6a1e635403c25a18e469dfd28fc7044ea0ce580c69bcc93ba49ce82dad"),
    ("2", "1024", F4, 16619,
     "fb9e2f74e08b4dcc3cd26de804c40ee116b6aed35b33a3d15afce11ea5706429"),
    ("3", "192", "2539107 + 282123*y + 3645*y^2 + 14580*y^3 + 5589*y^4 + 1242*y^5"
     " + 72*y^6 + 21*y^7 + y^8", 2143,
     "c7a0e8b2c39a9538aa9c1755e07888fd76283a1763d6843143323a3d3d66f4bc"),
    ("5", "192", "74218750 + 2187500*y + 62500*y^2 + 81250*y^3 + 296875*y^4 + 90625*y^5"
     " + 200*y^6 + 95*y^7 + y^8", 2154,
     "85eb482924ec641dbedaf9fc73738cd07b703e30a04f5b0effb074f4e7a121fc"),
    ("7", "192", "7626831723 + 34588806*y + 3411821*y^2 + 201684*y^3 + 14406*y^4"
     " + 24010*y^5 + 10290*y^6 + 7889*y^7 + y^8", 2154,
     "c8427faabdfb096cbc99bd1f0bebd8675f9163ac68569eb0886699d017b48fd4"),
]


@pytest.mark.parametrize("p, prec, text, lines, sha256", DEEP_PADIC,
                         ids=[f"p{p}-prec{prec}" for p, prec, *_ in DEEP_PADIC])
def test_deep_padic_reports_are_pinned(p, prec, text, lines, sha256, capsys):
    assert main(["padic", "-p", p, "--prec", prec, text]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("text", ["2^5*y + 32", "0"])
def test_padic_zero_in_residue_ring_exits_3(text, capsys):
    # Both inputs vanish in Z/2^5, so the polygon does not exist.
    code = main(["padic", "-p", "2", "--prec", "5", text])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "the zero polynomial has no Newton polygon"}


class LiftRan(Exception):
    pass


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-string limit")
@pytest.mark.parametrize("limit, prec, refused", [
    (640, 2126, False),  # 2^2126 has 640 decimal digits
    (640, 2127, True),   # 641 digits
    (640, 2200, True),
    (640, 4 * 640 + 1, True),  # past 4*limit, refused without forming 2^k
    (0, 2200, False),    # 0 means no limit
])
def test_padic_refuses_a_modulus_it_cannot_print_before_lifting(limit, prec, refused,
                                                                 monkeypatch, capsys):
    def no_lift(pp):
        raise LiftRan

    def no_power(ring):
        raise AssertionError("p^k formed")

    monkeypatch.setattr(edgelift.weier, "padic_newton_factor", no_lift)
    if prec > 4 * limit > 0:
        monkeypatch.setattr(edgelift.coeffs.RingDescriptor, "modulus", property(no_power))
    argv = ["padic", "-p", "2", "--prec", str(prec), F4]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        if refused:
            assert main(argv) == 3
        else:
            with pytest.raises(LiftRan):
                main(argv)
    finally:
        sys.set_int_max_str_digits(saved)
    captured = capsys.readouterr()
    assert captured.out == ""
    if refused:
        assert json.loads(captured.err) == {"error": (
            f"--prec {prec}: 2^{prec} has more than {limit} decimal digits, "
            "past this interpreter's int-to-string limit")}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-string limit")
def test_factor_over_a_field_past_the_int_string_limit_still_prints(capsys):
    """factor and weierstrass print residues of an F_p lift, so their
    --field has no such limit."""
    argvs = [[command, "--field", "Z/3^1342", "--vars", "x,y", "--bound", "10",
              "y^2 - x^2 - x^3"] for command in ("factor", "weierstrass")]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        reports = [run(capsys, argv) for argv in argvs]
    finally:
        sys.set_int_max_str_digits(saved)
    assert [(code, report["verdict"]) for code, report in reports] == [
        (0, "reducible"), (0, "factored")]
    for argv, (_, report) in zip(argvs, reports):
        assert_lift_contract(argv, report)


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


def x_free_part(text, names, ring=rationals()):
    """The terms of a printed factor free of every variable but the last."""
    return {e: c for e, c in parse(text, VarTable(names), ring).terms.items() if not any(e[:-1])}


def test_weierstrass_command(capsys):
    argv = ["weierstrass", "y^8 + (x1^3 - x2^2)*y^3 + x1^5*x2^4*y^2 - x1^15*x2^18",
            "--vars", "x1,x2,y", "--bound", "30"]
    code, report = run(capsys, argv)
    assert code == 0
    assert report["verdict"] == "factored"
    assert x_free_part(report["g"], ("x1", "x2", "y")) == {(0, 0, 1): 1}   # g(0, y) = y
    assert_lift_contract(argv, report)
    # factor's report shape
    assert list(report) == ["verdict", "edge", "g", "h", "certificate"]


@pytest.mark.parametrize("bound", ["0", "32"])
def test_weierstrass_below_the_edge_weight_prints_the_split(bound, capsys):
    # Example 3's edge weighs wt(G) + wt(H) = 12 + 21 = 33 in xi0 = (1, 1, 12):
    # a bound below it determines nothing past G and H
    argv = ["weierstrass", EXAMPLE3, "--vars", "x1,x2,y", "--bound", bound]
    code, report = run(capsys, argv)
    assert code == 0
    assert (sum(report["certificate"]["w"]), sum(report["certificate"]["z"])) == (12, 21)
    assert (report["g"], report["h"]) == ("y - x1^5*x2^7", "x1^5*x2^4*y + x1^10*x2^11")
    assert x_free_part(report["g"], ("x1", "x2", "y")) == {(0, 0, 1): 1}
    assert_lift_contract(argv, report)


SPLIT_ARGV = ["--vars", "x,y", "--split", "y-x,y+x", "y^2 - x^2 + x^3"]


@pytest.mark.parametrize("command, argv, bounds", [
    ("weierstrass", ["--vars", "x1,x2,y", EXAMPLE3], (40, 60)),
    ("weierstrass", ["--vars", "x1,x2,y", EXAMPLE3], (60, 90)),
    ("weierstrass", SPLIT_ARGV, (6, 21)),
    ("weierstrass", ["--field", "F7"] + SPLIT_ARGV, (6, 21)),
    ("weierstrass", ["--field", "Z/5^3"] + SPLIT_ARGV, (6, 21)),
    ("factor", [EXAMPLE1], (40, 55)),
    ("factor", SPLIT_ARGV, (6, 21)),
    ("factor", ["--field", "F7"] + SPLIT_ARGV, (6, 21)),
    ("factor", ["--field", "Z/5^3"] + SPLIT_ARGV, (6, 21)),
], ids=["weierstrass-example3-40", "weierstrass-example3-60", "weierstrass-Q", "weierstrass-F7",
        "weierstrass-Z5^3", "factor-example1", "factor-Q", "factor-F7", "factor-Z5^3"])
def test_printed_factors_are_prefixes_across_bounds(command, argv, bounds, capsys):
    # At bound N, in the xi0 weights of the lifted edge, g is determined up to
    # N - wt(H) and h up to N - wt(G): every printed term is a term of the
    # output at a larger bound, and every term of that output up to these
    # weights is printed.  weierstrass's g is a Weierstrass polynomial at
    # every bound: g(0, y) = y.
    names = (argv[argv.index("--vars") + 1] if "--vars" in argv else "x,y,z").split(",")
    ring = RingDescriptor.from_string(argv[argv.index("--field") + 1] if "--field" in argv
                                      else "Q")
    report, larger = (run(capsys, [command, *argv, "--bound", str(n)])[1] for n in bounds)
    xi0 = orthogonal_basis(report["edge"]["dir"]).xi0
    wt_g, wt_h = sum(report["certificate"]["w"]), sum(report["certificate"]["z"])
    determined = {"g": bounds[0] - wt_h, "h": bounds[0] - wt_g}
    for key in ("g", "h"):
        terms, more = (parse(r[key], VarTable(names), ring).terms for r in (report, larger))
        assert terms == {e: c for e, c in more.items() if exp_dot(xi0, e) <= determined[key]}, key
    if command == "weierstrass":
        y = (0,) * (len(names) - 1) + (1,)
        assert [x_free_part(r["g"], names, ring) for r in (report, larger)] == [{y: 1}] * 2


def test_weierstrass_runs_no_normalize_or_divide(monkeypatch, capsys):
    """The lift's own g is the Weierstrass polynomial; the tail functions
    stay library functions that the command does not call."""
    def tail(*args):
        raise AssertionError("the Weierstrass tail ran")

    monkeypatch.setattr(edgelift.weier, "weierstrass_normalize", tail)
    monkeypatch.setattr(edgelift.weier, "poly_divide", tail)
    for field in ("Q", "F7", "Z/5^3"):
        argv = ["weierstrass", "--field", field, *SPLIT_ARGV, "--bound", "12"]
        code, report = run(capsys, argv)
        assert (code, report["verdict"]) == (0, "factored")
        assert_lift_contract(argv, report)
        assert x_free_part(report["g"], ("x", "y"), RingDescriptor.from_string(field)) == {
            (0, 1): 1}


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


@pytest.mark.parametrize("argv, message", [
    *((["analyze", "--field", field, "--vars", "x,y", "x + y"], "expected Q, F<p>")
      for field in ("F1_3", "Z/5^", "F+7", "F 7", "Z/5^+2", "Z/ 5^2", "F")),
    (["analyze", "--vars", "x,y", "3^16000000*x + y"], "decimal digits (at position 0)"),
    # verify prints no coefficient, but its literal is refused all the same
    (["verify", "--vars", "x,y", "3^16000000*x", "x", "3^16000000"], "decimal digits")])
def test_a_malformed_field_or_an_oversized_literal_exits_3(argv, message, capsys):
    assert main(argv) == 3
    assert message in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_golden_output(case, capsys):
    """Byte-exact stdout and exit code of each request in golden/cases.json;
    the expected stdout is golden/<name>.out, and the expected stderr
    golden/<name>.err where that file exists."""
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_text()
    err = GOLDEN / f"{case['name']}.err"
    if err.exists():
        assert captured.err == err.read_text()
    assert code == case["exit"]


def test_golden_reports_are_json_dumps_with_indent_2():
    """Every JSON report in golden/ is the text json.dumps(report, indent=2)
    prints, plus a newline: the goldens pin cli._json_text against json's
    own encoder.  Text-format cases and empty outputs (errors) are skipped."""
    checked = 0
    for case in GOLDEN_CASES:
        argv, text = case["argv"], (GOLDEN / f"{case['name']}.out").read_text()
        if "--format" in argv and argv[argv.index("--format") + 1] == "text" or not text:
            continue
        assert text == json.dumps(json.loads(text), indent=2) + "\n", case["name"]
        checked += 1
    assert checked >= 30


def test_golden_lifts_hold_under_independent_arithmetic():
    """Every golden lift that exits 0 with a JSON report, checked with
    perfbench/polyarith.py and not SparsePoly.mul: a factor or weierstrass
    report keeps its contract (assert_lift_contract), and padic's factors
    multiply to f mod p^k."""
    lifts = padics = 0
    for case in GOLDEN_CASES:
        args = build_parser().parse_args(case["argv"])
        if (case["exit"] or args.format != "json"
                or args.command not in ("factor", "weierstrass", "padic")):
            continue
        report = json.loads((GOLDEN / f"{case['name']}.out").read_text())
        if args.command != "padic":
            assert_lift_contract(case["argv"], report)
            lifts += 1
            continue
        ring = residue_ring(args.prime, args.prec)
        product = {(0,): 1}
        for text in report["factors"]:
            product = polyarith.poly_mul(product, polyarith.parse_rendered(text, ("y",)),
                                         ring.modulus)
        assert product == parse(args.expression, VarTable(("y",)), ring).terms, case["name"]
        padics += 1
    assert lifts >= 14 and padics >= 3


def test_the_report_writer_prints_what_json_dumps_prints():
    """cli._json_text is json.dumps(value, indent=2) on the values a report
    holds: str-keyed dicts in their key order, lists, tuples (printed as
    lists), empty containers, bools, None, ints of either sign and past
    2^64, and strings with quotes, backslashes, control and non-ASCII
    characters.  A value json cannot write raises TypeError in both."""
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                             st.characters()))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(min_value=2**64, max_value=2**200),
                        st.integers(max_value=-2**64, min_value=-2**200), text)
    values = st.recursive(
        scalars,
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.lists(inner, max_size=4).map(tuple),
                                st.dictionaries(text, inner, max_size=4)),
        max_leaves=24)

    @hp.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hp.given(values)
    def check(value):
        assert _json_text(value) == json.dumps(value, indent=2)

    check()
    for bad in (object(), [1, {"a": {1, 2}}]):
        with pytest.raises(TypeError):
            _json_text(bad)


def test_the_report_writer_refuses_an_int_json_refuses():
    # past the interpreter's int-to-string limit json.dumps raises
    # ValueError, and so does the writer, through the same int.__repr__
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-string limit in this interpreter")
    value = {"modulus": [10**limit]}
    with pytest.raises(ValueError):
        json.dumps(value, indent=2)
    with pytest.raises(ValueError):
        _json_text(value)


def _run_module(argv, stdout):
    """Run ``python -m edgelift.cli argv`` with the given stdout."""
    src = str(Path(edgelift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "edgelift.cli"] + argv, stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.mark.parametrize("name", ["readme_weierstrass", "readme_verify", "readme_padic"])
def test_a_closed_stdout_keeps_the_exit_code(name):
    # a reader that exits before reading the report (here a pipe whose read
    # end is closed) neither changes the exit code nor prints an error; the
    # padic report outgrows stdout's 8 KiB buffer, so its write fails inside
    # print, and the weierstrass and verify reports' writes fail at the flush
    case = next(c for c in GOLDEN_CASES if c["name"] == name)
    read, write = os.pipe()
    os.close(read)
    try:
        run = _run_module(case["argv"], write)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (case["exit"], b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_stdout_exits_4():
    # any other write error is reported, with the output-error exit code
    case = next(c for c in GOLDEN_CASES if c["name"] == "readme_verify")
    with open("/dev/full", "w") as full:
        run = _run_module(case["argv"], full)
    assert run.returncode == 4
    assert json.loads(run.stderr) == {"error": "[Errno 28] No space left on device"}


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
                        lambda poly, edges, *args, **kwargs:
                        first_split(poly, edges[-1:], *args, **kwargs))
    code, report = run(capsys, ["factor", EXAMPLE2, "--bound", "12"])
    assert code == 0 and report["verdict"] == "reducible"
    assert report["edge"] == loose[-1].to_dict()
    g, h = (parse(report[k], vt, rationals()) for k in ("g", "h"))
    residual = f - g * h
    assert residual.min_weighted_degree(orthogonal_basis(loose[-1].direction).xi0) > 12


def test_weierstrass_hands_the_chooser_every_descendant_loose_edge(monkeypatch, capsys):
    # like factor's loose edges, every descendant loose edge is a candidate:
    # here both (1,1)-(0,3) and (1,1)-(2,0)
    tried = []
    first_split = lift._first_split

    def recording(poly, edges, *args, **kwargs):
        tried.append(len(edges))
        return first_split(poly, edges, *args, **kwargs)

    monkeypatch.setattr(lift, "_first_split", recording)
    code, report = run(capsys, ["weierstrass", "--vars", "x,y", "--field", "F2",
                                "y^3 + x*y + x^2"])
    assert code == 0 and report["verdict"] == "factored"
    assert tried == [2]


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
    ["verify", "--vars", "x,y", "x^2 - y^2", "x - y", "x + y + 1"],
])
def test_negative_bound_exits_3_before_any_work(argv, capsys):
    code = main(argv + ["--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {"error": "truncation bound must be nonnegative"}


def test_weierstrass_split_with_a_degree_0_monic_part(capsys):
    # G = 1 is monic of y-degree 0, but a constant part splits nothing
    code, report = run(capsys, ["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y",
                                "--split", "1,y^2 - x^2"])
    assert code == 2
    assert report == {"verdict": "invalid_split", "reason": "UnitPart"}


@pytest.mark.parametrize("argv", [
    ["factor"],
    ["weierstrass"],
    ["weierstrass", "--split", "y^3,1"],
], ids=["factor", "weierstrass", "weierstrass_split"])
def test_a_single_term_restriction_mod_p_is_skipped(argv, capsys):
    # mod 3 the restriction to the edge (0,3)-(2,1) is the monomial y^3 and
    # the one to (2,1)-(4,0) vanishes: neither is an edge of f mod 3, so no
    # route chooses a split for them
    code = main(argv + ["--field", "Z/3^2", "--vars", "x,y", "3*x^4 + 3*x^2*y + y^3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "edge restriction vanishes or is a single term in the residue field"}


@pytest.mark.parametrize("split", [None, "y+x,x^2"])
def test_factor_skips_an_edge_that_vanishes_mod_p(split, capsys):
    # over Z/3^2 the first loose edge's restriction 3*x*y^2 + 3*y^4 vanishes
    # mod 3; both routes lift the next loose edge
    argv = ["factor", "--field", "Z/3^2", "--vars", "x,y", "--bound", "8",
            "x^3 + x^2*y + 3*x*y^2 + 3*y^4"]
    code, report = run(capsys, argv + (["--split", split] if split else []))
    assert code == 0 and report["verdict"] == "reducible"
    assert (report["edge"]["a"], report["edge"]["b"]) == ([1, 2], [3, 0])


def test_one_orthogonal_basis_per_edge_restriction(monkeypatch, capsys):
    # no command builds an edge's weight system outside its restriction, and
    # the lift takes the chooser's restriction: one per edge tried (the
    # split on EXAMPLE2 matches the third of its three loose edges)
    from edgelift import cli, grading, weier

    counts = {"basis": 0, "restriction": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (grading, lift, weier, cli):
        if hasattr(module, "orthogonal_basis"):
            monkeypatch.setattr(module, "orthogonal_basis",
                                counting("basis", module.orthogonal_basis))
    for module in (lift, weier):
        monkeypatch.setattr(module, "edge_restriction",
                            counting("restriction", module.edge_restriction))
    for argv, restrictions in (
            (["factor", EXAMPLE1, "--bound", "12"], 1),
            (["factor", EXAMPLE2, "--split", "z+x^2*y^2,x*y", "--bound", "10"], 3),
            (["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y", "--bound", "6"], 1),
            (["weierstrass", "y^2 - x^2 + x^3", "--vars", "x,y", "--split", "y-x,y+x"], 1),
            (["padic", "-p", "2", "--prec", "16", F4], 1)):
        counts.update(basis=0, restriction=0)
        assert main(argv) == 0
        capsys.readouterr()
        assert counts == {"basis": restrictions, "restriction": restrictions}, argv
