"""Expression grammar round trips and the command-line front end."""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from spinhecke import algebras as alg
from spinhecke import cli
from spinhecke.cli import main
from spinhecke.engine import element_from_terms, monomial_element, random_monomial
from spinhecke.exprparse import MAX_NESTING, ParseError, parse_expression, parse_scalar
from spinhecke.render import element_str
from spinhecke.scalars import ONE, U, Scalar, W


def test_parse_spec_examples():
    d2 = alg.dahca(2)
    assert element_str(parse_expression("[y2, x1]", d2)) == "u*s12 + u*s12*c1*c2"
    s2 = alg.sdaha(2)
    assert parse_expression("{xi1, xi2}", s2).is_zero
    mix = parse_expression("u^-1 * y1*x1 + M(2)", d2)
    by_hand = element_from_terms(
        d2,
        [(ONE / U, (("y", 1), ("x", 1))), (ONE, (("sij", 1, 2),)),
         (-ONE, (("c", 2), ("c", 1), ("sij", 1, 2)))],
    )
    assert mix == by_hand


def test_parse_scalars_and_fractions():
    assert parse_scalar("1/2") == Scalar.from_rational(1) / Scalar.from_rational(2)
    assert parse_scalar("u") == U
    assert parse_scalar("w") == W
    assert parse_scalar("-u^2") == -(U * U)
    with pytest.raises(ParseError):
        parse_scalar("x1")


def test_parse_calls():
    d3 = alg.dahca(3)
    from spinhecke.clifford_family import jucys_murphy, z_element

    assert parse_expression("M(3)", d3) == jucys_murphy(3, d3)
    assert parse_expression("z(2)", d3) == z_element(2, d3)
    s3 = alg.sdaha(3)
    from spinhecke.clifford_family import odd_transposition

    assert parse_expression("Ms(3)", s3) == jucys_murphy(3, s3)
    assert parse_expression("tr(1,3)", s3) == odd_transposition(1, 3, s3)
    assert parse_expression("s(1,3)", d3) == parse_expression("s13", d3)


def test_tower_calls_build_the_algebras_own_element():
    # M/Ms and z/fz are two spellings of the element of the algebra's tower
    from spinhecke.clifford_family import jucys_murphy, z_element

    for sig in (alg.dahca(3), alg.sdaha(3)):
        for i in (1, 2, 3):
            for names, build in ((("M", "Ms"), jucys_murphy), (("z", "fz"), z_element)):
                for name in names:
                    assert parse_expression(f"{name}({i})", sig) == build(i, sig), (sig.name, name)
    assert _run(["normalize", "--algebra", "sdaha", "--n", "3", "--expr", "M(2)"]) == (0, "t1\n")


def test_parse_errors():
    d2 = alg.dahca(2)
    with pytest.raises(ParseError, match="position"):
        parse_expression("x1 $ y1", d2)
    with pytest.raises(ParseError):
        parse_expression("xi1", d2)  # wrong algebra
    with pytest.raises(ParseError):
        parse_expression("x9", d2)  # index out of range
    with pytest.raises(ParseError):
        parse_expression("(x1", d2)
    # trailing whitespace ends the input; a lexical error reports where its
    # whitespace starts
    assert parse_expression("x1 + y1 \t\n ", d2) == parse_expression("x1+y1", d2)
    with pytest.raises(ParseError, match=re.escape("lexical error at position 2: '  $'")):
        parse_expression("x1  $", d2)


def test_render_parse_round_trip_random():
    rng = random.Random(2026)
    for make in (
        alg.sym,
        alg.clifford_sym,
        alg.spin_sym,
        alg.affine_hc,
        alg.spin_affine,
        alg.dahca,
        alg.sdaha,
        alg.trig_dahca,
        alg.trig_sdaha,
    ):
        sig = make(3)
        for _ in range(500):
            elem = monomial_element(sig, random_monomial(sig, rng, 3))
            if rng.random() < 0.3:
                elem = elem.scale(-U) + monomial_element(sig, random_monomial(sig, rng, 2))
            text = element_str(elem)
            assert parse_expression(text, sig) == elem, (sig.name, text)


def test_round_trip_with_composite_coefficients():
    d2 = alg.dahca(2)
    for text in (
        "(1 + 2*w)/u * x1*y1 - w*s12",
        "(u^2 - 1)/(u + 1) * c1*c2 + 1/2",
        "w*u*x1^3 - (3/4)*y2^2",
    ):
        elem = parse_expression(text, d2)
        assert parse_expression(element_str(elem), d2) == elem


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_cli_normalize_matches_spec():
    rc, out = _run(["normalize", "--algebra", "dahca", "--n", "2", "--expr", "y1*x1"])
    assert rc == 0
    assert out.strip() == "x1*y1 - u*s12 - u*s12*c1*c2"


def test_cli_zero_prints_an_empty_term_list():
    rc, out = _run(["normalize", "--algebra", "dahca", "--n", "2", "--expr", "0",
                    "--format", "json"])
    assert rc == 0
    assert out == (
        '{\n "algebra": "DaHCa",\n "command": "normalize",\n "n": 2,\n "result": {\n'
        '  "algebra": "DaHCa",\n  "n": 2,\n  "terms": []\n },\n'
        ' "schema": "spinhecke-report/1"\n}\n'
    )


def test_cli_parenthesizes_a_sum_in_the_denominator():
    for expr, text in (("1/(u+1)", "1/(u + 1)"), ("x1/(u^2+w*u)", "1/(u^2 + w*u)*x1")):
        assert _run(["normalize", "--algebra", "dahca", "--n", "2", "--expr", expr]) == (
            0, text + "\n"), expr


@pytest.mark.parametrize(
    "algebra, n, expr, expected, unit",
    [
        ("sym", "3", "s1^-1", "s12", "s1"),
        ("spinsym", "3", "(t1*t2)^-1", "t2*t1", "t1*t2"),
        ("cliffordsym", "2", "(c1*c2)^-1", "-c1*c2", "c1*c2"),
        ("dahca", "2", "x1/s1", "x1*s12", "s1"),
        ("trigdahca", "2", "(e(1)*s1*c1)^-1", "einv(2)*s12*c2", "e(1)*s1*c1"),
    ],
)
def test_cli_inverts_unit_monomials(algebra, n, expr, expected, unit):
    for text, want in ((expr, expected), (f"({unit})*({unit})^-1", "1"),
                       (f"({unit})^-1*({unit})", "1")):
        rc, out = _run(["normalize", "--algebra", algebra, "--n", n, "--expr", text])
        assert (rc, out.strip()) == (0, want), text


def test_cli_verify_relations_exit_zero():
    rc, out = _run(["verify-relations", "--algebra", "sdaha", "--n", "3", "--format", "json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["schema"] == "spinhecke-report/1"
    assert blob["summary"]["fail"] == 0
    assert all(r["status"] == "pass" for r in blob["results"])


def test_cli_verify_morphisms():
    rc, out = _run(["verify-morphisms", "--name", "Phi", "--n", "2", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["summary"]["fail"] == 0


def test_cli_center_check_failure_exit_code():
    rc, _ = _run(["center-check", "--algebra", "dahca", "--n", "2", "--expr", "x1 + x2"])
    assert rc == 1
    rc, _ = _run(["center-check", "--algebra", "dahca", "--n", "2", "--expr", "y1 + y2"])
    assert rc == 0


def test_cli_u_specialization_flag():
    rc, out = _run(
        ["normalize", "--algebra", "dahca", "--n", "2", "--u", "0", "--expr", "y1*x1"]
    )
    assert rc == 0
    assert out.strip() == "x1*y1"
    rc, out = _run(["normalize", "--algebra", "dahca", "--n", "2", "--u", "1", "--expr", "u*x1"])
    assert rc == 0
    assert out.strip() == "x1"
    rc, _ = _run(["normalize", "--algebra", "dahca", "--n", "2", "--u", "0", "--expr", "x1/u"])
    assert rc == 2


def test_cli_center_check_at_u_zero():
    # the u = 0 specialization admits the diagonal-invariant center elements
    expr = "x1^2*y1 + x2^2*y2"
    rc, _ = _run(["center-check", "--algebra", "dahca", "--n", "2", "--u", "0",
                  "--expr", expr])
    assert rc == 0
    rc, _ = _run(["center-check", "--algebra", "dahca", "--n", "2", "--expr", expr])
    assert rc == 1


def test_cli_act_and_map():
    rc, out = _run(
        ["act", "--op", "dunkl-x", "--i", "1", "--module", "basic-spin", "--n", "2",
         "--expr", "y2"]
    )
    assert rc == 0
    assert "u*1 ⊗ c1*c2" in out
    rc, out = _run(["map", "--name", "Phi", "--n", "3", "--expr", "x1*y2", "--format", "json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["result"]["terms"] == [{"coeff": "w", "mono": "c1*xi1*y2"}]


@pytest.mark.parametrize("fmt, unused", [("json", "element_str"), ("text", "element_json")])
def test_cli_builds_only_the_requested_format(monkeypatch, fmt, unused):
    def refuse(elem):
        raise AssertionError(f"{unused} called for --format {fmt}")

    monkeypatch.setattr(cli, unused, refuse)
    for argv in (["normalize", "--algebra", "dahca", "--n", "2", "--expr", "y1*x1"],
                 ["map", "--name", "Phi", "--n", "3", "--expr", "x1*y2"]):
        rc, out = _run(argv + ["--format", fmt])
        assert rc == 0 and out.strip(), argv
        if fmt == "json":
            assert json.loads(out)["result"]["terms"]


def test_cli_cocycle_table_deterministic():
    rc1, out1 = _run(["cocycle-table", "--n", "3", "--format", "json"])
    rc2, out2 = _run(["cocycle-table", "--n", "3", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cli_repeat_runs_byte_identical():
    argv = ["verify-relations", "--algebra", "trigdahca", "--n", "2", "--format", "json"]
    assert _run(argv) == _run(argv)
    argv = ["verify-modules", "--algebra", "sdaha", "--n", "2", "--degree-bound", "2",
            "--format", "json"]
    assert _run(argv) == _run(argv)


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--n", "2", "--expr", "x1"])
    assert exc.value.code == 2
    rc = main(["normalize", "--algebra", "dahca", "--n", "2", "--expr", "x1 +"])
    assert rc == 2
    rc = main(["normalize", "--algebra", "nothere", "--n", "2", "--expr", "x1"])
    assert rc == 2
    for argv in (
        ["act", "--op", "dunkl-x", "--i", "5", "--n", "2", "--expr", "y1"],
        ["act", "--op", "dunkl-x", "--i", "0", "--n", "2", "--expr", "y1"],
        ["act", "--op", "dunkl-x", "--i", "1", "--n", "2", "--expr", "y1", "--vector", "99"],
        ["act", "--op", "dunkl-xi", "--i", "1", "--module", "regular-spin", "--n", "2",
         "--expr", "y1", "--vector", "-1"],
        ["verify-modules", "--algebra", "dahca", "--n", "2", "--degree-bound", "-1"],
        ["normalize", "--algebra", "dahca", "--n", "2", "--expr", "x1/0"],
        ["normalize", "--algebra", "dahca", "--n", "2", "--u", "1/0", "--expr", "x1"],
        ["cocycle-table", "--n", "-1"],
        ["cocycle-table", "--n", "0"],
        ["cocycle-table", "--n", "1"],
        ["cocycle-table", "--n", "7"],
        ["verify-modules", "--algebra", "sdaha", "--n", "7", "--degree-bound", "2"],
        # the intertwiners keep one tower each
        ["normalize", "--algebra", "spinaffine", "--n", "2", "--expr", "phi(1)"],
        ["normalize", "--algebra", "affinehc", "--n", "2", "--expr", "psi(1)"],
    ):
        assert main(argv) == 2, argv
    for argv, message in (
        (["verify-modules", "--algebra", "dahca", "--n", "2", "--module", "regular-spin"],
         "dahca needs --module basic-spin"),
        (["verify-modules", "--algebra", "sdaha", "--n", "2", "--module", "basic-spin"],
         "sdaha needs --module regular-spin"),
        (["normalize", "--algebra", "dahca", "--n", "2", "--expr", "x1^-1"],
         "monomial is not invertible in this algebra"),
        (["normalize", "--algebra", "sym", "--n", "3", "--expr", "s(1)"],
         "s takes two indices (at position 0)"),
        (["normalize", "--algebra", "sym", "--n", "3", "--expr", "tr(2)"],
         "tr takes two indices (at position 0)"),
        (["normalize", "--algebra", "sym", "--n", "3", "--expr", "s(1,2,3)"],
         "s takes two indices (at position 0)"),
        (["cocycle-table", "--n", "9"],
         "cocycle-table prints (n!)^2 rows; --n 9 exceeds the limit 6"),
        (["verify-modules", "--algebra", "dahca", "--n", "-1"], "rank n must be at least 2"),
        (["verify-modules", "--algebra", "sdaha", "--n", "1"], "rank n must be at least 2"),
        (["verify-modules", "--algebra", "dahca", "--n", "6", "--degree-bound", "2"],
         "verify-modules checks 2^n or n! module vectors; --n 6 exceeds the limit 5"),
        # C(5+4, 4) * 2^5 vectors at the default --degree-bound 4
        (["verify-modules", "--algebra", "dahca", "--n", "5"],
         "verify-modules checks C(n+d, d) * (2^n or n!) vectors; --n 5 --degree-bound 4 "
         "gives 4032, over the limit 2600"),
        (["normalize", "--algebra", "sym", "--n", "2", "--expr", "s(2,2)"],
         "at position 0: 's(i,j)' needs two different indices, got (2,2)"),
        (["normalize", "--algebra", "dahca", "--n", "3", "--expr", "x1*s33"],
         "at position 3: 's(i,j)' needs two different indices, got (3,3)"),
        (["normalize", "--algebra", "spinsym", "--n", "2", "--expr", "tr(1,1)"],
         "at position 0: 'tr(i,j)' needs two different indices, got (1,1)"),
        (["act", "--op", "dunkl-xi", "--i", "1", "--n", "2", "--expr", "y1"],
         "dunkl-xi needs --module regular-spin"),
        (["act", "--op", "dunkl-x", "--module", "regular-spin", "--i", "1", "--n", "2",
          "--expr", "y1"],
         "dunkl-x needs --module basic-spin"),
        (["act", "--op", "dunkl-x", "--i", "1", "--n", "2", "--expr", "x1"],
         "--expr must be a polynomial in the y variables"),
        # refused from the module's dimension, before the module is built
        (["act", "--op", "dunkl-x", "--i", "1", "--n", "19", "--expr", "y1"],
         "act builds the basic-spin module of 524288 vectors at --n 19, over the limit 400000"),
        (["act", "--op", "dunkl-xi", "--module", "regular-spin", "--i", "1", "--n", "10",
          "--expr", "y1"],
         "act builds the regular-spin module of 3628800 vectors at --n 10, over the limit 400000"),
        (["normalize", "--algebra", "dahca", "--n", "2", "--expr",
          "(" * 20000 + "y1*x1" + ")" * 20000],
         "brackets nest deeper than 100 levels at position 100"),
        # refused from its exponents, before the word is spelled
        (["map", "--name", "Phi", "--n", "2", "--expr", "x1^99999999999"],
         "Phi maps a monomial of 99999999999 letters; the limit is 10000"),
        (["map", "--name", "Psi", "--n", "2", "--expr", "(c1*xi1)^-1"],
         "monomial is not invertible in this algebra"),
        (["normalize", "--algebra", "sdaha", "--n", "2", "--u", "0", "--expr", "fz(1)"],
         "fz(1) at position 0: z_i needs u symbolic or specialized to a nonzero value"),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    # exactly MAX_NESTING levels, around call-form parentheses, still parse
    expr = "(" * MAX_NESTING + "epsv(1)^2*s1*e(2)" + ")" * MAX_NESTING
    assert main(["normalize", "--algebra", "trigdahca", "--n", "2", "--expr", expr]) == 0


def test_cli_maps_inverses_from_tensor_sources():
    # c_1 and t_1 are their own inverses in C_2 (x) SpinSym(2), and the
    # inverse of a product is the product of the inverses, reversed
    for expr, same in (("c1^-1", "c1"), ("t1^-1", "t1"), ("(c1*t1)^-1", "t1^-1*c1^-1")):
        rc, out = _run(["map", "--name", "PsiFin", "--n", "2", "--expr", expr])
        assert rc == 0, expr
        assert out == _run(["map", "--name", "PsiFin", "--n", "2", "--expr", same])[1], expr
    rc, out = _run(["map", "--name", "PsiFin", "--n", "2", "--expr", "c1^-1*c1"])
    assert (rc, out) == (0, "1\n")


def test_cli_non_scalar_flag_message(capsys):
    for argv in (
        ["verify-relations", "--algebra", "dahca", "--n", "2", "--u", "x1"],
        ["embedding-check", "--algebra", "dahca", "--n", "2", "--alpha", "x1"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: 'x1' is not a scalar\n"


def _run_full(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_cli_parser_reuse_matches_fresh_parser():
    assert cli.build_parser() is cli.build_parser()
    session = (
        ["normalize", "--algebra", "dahca", "--n", "2", "--expr", "y1*x1"],
        ["verify-relations", "--algebra", "sdaha", "--n", "2", "--format", "json"],
        ["normalize", "--n", "2", "--expr", "x1"],  # usage error: no --algebra
        ["normalize", "--algebra", "dahca", "--n", "2", "--u", "1", "--expr", "y1*x1",
         "--format", "json"],
    )
    reused = [_run_full(argv) for argv in session]
    assert [r[0] for r in reused] == [0, 0, 2, 0]
    for argv, got in zip(session, reused):
        cli.build_parser.cache_clear()
        assert _run_full(argv) == got, argv


def test_cli_embedding_check():
    rc, out = _run(
        ["embedding-check", "--algebra", "dahca", "--n", "2", "--alpha", "u",
         "--format", "json"]
    )
    assert rc == 0
    assert json.loads(out)["summary"]["fail"] == 0
