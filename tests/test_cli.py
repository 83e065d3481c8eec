"""Command-line interface: output text, JSON payloads, and exit codes."""

import json

import pytest

from fracforms import (Context, exprs_close, form_from_json, frac_exterior_deriv, forms_close,
                       parse_expr)
from fracforms import cli, errors
from fracforms.charts import get_chart, inverse_residual, polar_radial_closed_form
from fracforms.cli import infer_coords, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


# ---------------------------------------------------------------------------
# differintegral verbs


def test_deriv_constant(capsys):
    code, out, _ = run(capsys, "deriv", "1", "--coords", "x", "--var", "x", "--order", "0.5")
    assert code == 0
    assert out == "0.5641895835*x^-0.5"


def test_deriv_whole_order(capsys):
    code, out, _ = run(capsys, "deriv", "x^3", "--var", "x", "--order", "1")
    assert code == 0
    assert out == "3*x^2"


def test_integ(capsys):
    code, out, _ = run(capsys, "integ", "x", "--var", "x", "--order", "0.5")
    assert code == 0
    assert out == "0.7522527781*x^1.5"


def test_deriv_domain_error_exits_3(capsys):
    code, out, err = run(capsys, "deriv", "x^-2", "--var", "x", "--order", "0.5")
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:")


@pytest.mark.parametrize("argv, message", [
    (["deriv", "x^2", "--var", "x", "--order", "inf"],
     "differintegral order must be finite, got inf"),
    (["dv", "x^2", "--order", "inf"], "exterior derivative order must be >= 0 and finite, got inf"),
    (["integ", "x^2", "--var", "x", "--order", "1e999"],
     "integral order must be positive and finite, got inf"),
    (["jacobian", "--chart", "polar", "--order", "inf", "--point", "1,1"],
     "jacobian order must be positive and finite, got inf"),
    (["oracle", "x^2", "--var", "x", "--order", "nan", "--point", "2"],
     "GL order must be finite, got nan"),
    (["dv", "x d(x,1e999)", "--order", "0.5"],
     "differential order must be >= 0 and finite, got inf"),
    (["closed", "x d(x,1e999) + y d(y,1e999)"],
     "differential order must be >= 0 and finite, got inf"),
    (["oracle", "x^2", "--var", "x", "--order", "0.5", "--point", "2", "--h", "0"],
     "GL step must be positive and finite, got 0.0"),
    (["oracle", "x^2", "--var", "x", "--order", "0.5", "--point", "2", "--h", "-0.1"],
     "GL step must be positive and finite, got -0.1"),
    (["jacobian", "--chart", "polar", "--order", "0.5", "--point", "2,0.7", "--h", "0"],
     "GL step must be positive and finite, got 0.0"),
    (["dv", "x^2", "--order", "-0.5"],
     "exterior derivative order must be >= 0 and finite, got -0.5"),
    # the GL scale step^-order overflows a double at order 171.5
    (["oracle", "x^-0.5", "--var", "x", "--order", "171.5", "--point", "2", "--levels", "5"],
     "GL differintegral of order 171.5 at step 6.25e-06 overflows a double"),
    (["jacobian", "--chart", "polar", "--order", "171.5", "--point", "0.5,0.5"],
     "chart 'polar', entry (k=0, i=0) along r at order 171.5: "
     "GL differintegral of order 171.5 at step 0.00025 overflows a double"),
    (["lineelement", "--chart", "scale:2,3", "--order", "171.5", "--point", "0.5,0.5",
      "--numeric", "--dy", "0.1,0.2"],
     "chart 'scale:2,3', entry (k=0, i=0) along y1 at order 171.5: "
     "GL differintegral of order 171.5 at step 0.00025 overflows a double"),
    # a partial GL sum overflows; the sample probe before it stays silent
    (["oracle", "1e307*x^2", "--var", "x", "--order", "-0.5", "--point", "2"],
     "GL differintegral of order -0.5 at step 2.5e-05 overflows a double"),
    # the finest GL grid would have more nodes than the oracle's cap
    (["oracle", "x", "--var", "x", "--order", "0.5", "--point", "1e300", "--h", "1e-300"],
     "GL grid of inf nodes (inf bytes of samples) at step 1e-300 and 3 levels "
     "exceeds the cap of 134217728 nodes"),
    (["jacobian", "--chart", "polar", "--order", "0.5", "--point", "1e300,0.7", "--h", "1e-300"],
     "GL grid of inf nodes (inf bytes of samples) at step 1e-300 and 3 levels "
     "exceeds the cap of 134217728 nodes"),
    # the power rule's coefficient overflows a double
    (["deriv", "x^200", "--var", "x", "--order", "170.5"],
     "D^170.5 along x: a coefficient overflows a double"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_orders_and_steps_outside_the_domain_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"domain error: {message}")


def test_deriv_json(capsys):
    code, out, _ = run(
        capsys, "deriv", "x", "--var", "x", "--order", "0.5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expr"] == "1.1283791670955128*x^0.5"


# ---------------------------------------------------------------------------
# coordinate inference


def test_infer_coords_sorts_identifiers():
    assert infer_coords("x2^2*x1 + x3") == ("x1", "x2", "x3")


def test_infer_coords_skips_differential_heads():
    assert infer_coords("x2 d(x1,0.5)") == ("x1", "x2")


def test_unknown_coordinate_exits_2(capsys):
    code, _, err = run(capsys, "deriv", "y", "--coords", "x", "--var", "x", "--order", "0.5")
    assert code == 2
    assert "unknown coordinate" in err


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "deriv", "x +", "--var", "x", "--order", "0.5")
    assert code == 2
    assert err.startswith("parse error:")


def test_origin_length_mismatch_exits_2(capsys):
    code, _, err = run(
        capsys, "deriv", "x", "--coords", "x", "--origin", "1,2",
        "--var", "x", "--order", "0.5",
    )
    assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    (["deriv", "x", "--coords", ",", "--var", "x", "--order", "0.5"],
     2, "parse error: empty coordinate list"),
    (["deriv", "x", "--origin", "a,b", "--var", "x", "--order", "0.5"],
     2, "parse error: expected comma-separated numbers, got 'a,b'"),
    (["deriv", "1", "--var", "x", "--order", "0.5"],
     2, "parse error: cannot infer coordinates from the input; pass --coords"),
    (["jacobian", "--chart", "scale:3", "--order", "0.5", "--residual"],
     3, "domain error: --residual needs --point"),
    (["lineelement", "--chart", "identity", "--order", "1", "--dy", "3,4"],
     3, "domain error: lineelement needs --point"),
    (["oracle", "x*y", "--var", "x", "--order", "0.5", "--point", "2"],
     3, "domain error: point has 1 coordinates, context has 2"),
    (["jacobian", "--chart", "scale:a", "--order", "1"],
     3, "domain error: bad scale factors in chart spec 'scale:a'"),
    (["jacobian", "--chart", "affine:1,x;2,3", "--order", "1"],
     3, "domain error: bad matrix in chart spec 'affine:1,x;2,3'"),
    (["jacobian", "--chart", "affine:1,2,3;4,5,6", "--order", "1"],
     3, "domain error: affine chart needs a square matrix, got shape (2, 3)"),
    (["jacobian", "--chart", "polar", "--order", "0.5", "--point", "1,2,3"],
     3, "domain error: point has 3 coordinates, chart has 2"),
    (["lineelement", "--chart", "identity", "--order", "1", "--point", "1,1", "--dy", "3"],
     3, "domain error: expected 2 displacement components, got (1,)"),
])
def test_input_validation_exit_codes_and_messages(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", message)


# every class in errors.py, with the exit code and prefix the cli docstring gives it
EXIT_OF_ERROR = {
    "FracFormsError": (3, "domain error:"),
    "ParseError": (2, "parse error:"),
    "UnknownCoordinateError": (2, "parse error:"),
    "PoleError": (3, "domain error:"),
    "EvalDomainError": (3, "domain error:"),
    "ExponentDomainError": (3, "domain error:"),
    "BoundarySingularityError": (3, "domain error:"),
    "QuadratureDomainError": (3, "domain error:"),
    "UnsupportedError": (4, "unsupported:"),
    "VerificationError": (3, "error:"),
    "NegativeQuadraticFormError": (3, "domain error:"),
}


def test_every_error_type_has_its_exit_code_and_prefix(capsys, monkeypatch):
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.FracFormsError)}
    assert classes.keys() == EXIT_OF_ERROR.keys()
    for name, cls in classes.items():
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_verify", fail)
        code, prefix = EXIT_OF_ERROR[name]
        assert run(capsys, "verify") == (code, "", f"{prefix} boom"), name


# ---------------------------------------------------------------------------
# graded derivative


def test_dv_scalar(capsys):
    code, out, _ = run(capsys, "dv", "x1^2*x2", "--order", "0.5")
    assert code == 0
    assert out == (
        "1.504505556*x1^1.5*x2 d(x1,0.5) + 1.128379167*x1^2*x2^0.5 d(x2,0.5)"
    )


def test_dv_whole_order(capsys):
    code, out, _ = run(capsys, "dv", "x^2", "--order", "2")
    assert code == 0
    assert out == "2 d(x,2)"


def test_dv_skips_zero_words(capsys):
    # d(x,1) & d(x,1) is the zero word, so x^-2 is never differentiated along x
    code, out, _ = run(capsys, "dv", "x^-2 d(x,1) + y d(y,1)", "--order", "1")
    assert code == 0
    assert out == "0"


def test_dv_json_round_trips(capsys):
    code, out, _ = run(capsys, "dv", "x1^2*x2", "--order", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    ctx = Context.of(("x1", "x2"))
    direct = frac_exterior_deriv(parse_expr("x1^2*x2", ctx), 0.5, ctx)
    assert forms_close(form_from_json(payload["form"], ctx), direct, tol=1e-12)


# ---------------------------------------------------------------------------
# closedness and exactness


def test_closed_yes(capsys):
    code, out, _ = run(capsys, "closed", "2*x1*x2 d(x1,1) + x1^2 d(x2,1)")
    assert code == 0
    assert out == "closed: yes"


def test_closed_no_with_witness(capsys):
    code, out, _ = run(capsys, "closed", "x2 d(x1,1)", "--coords", "x1,x2")
    assert code == 0
    assert out.splitlines() == ["closed: no", "witness (i=x1, j=x2): -1"]


def test_closed_witnesses_at_another_order(capsys):
    code, out, _ = run(capsys, "closed", "x2 d(x1,1) + x1^1.5 d(x2,1)",
                       "--coords", "x1,x2", "--mu", "0.5")
    assert code == 0
    assert out.splitlines() == [
        "closed: no",
        "witness (i=x1, j=x1): 0.5641895835*x1^-0.5*x2",
        "witness (i=x1, j=x2): 1.128379167*x2^0.5",
        "witness (i=x2, j=x1): 1.329340388*x1",
        "witness (i=x2, j=x2): 0.5641895835*x1^1.5*x2^-0.5",
    ]


def test_closed_needs_a_one_form(capsys):
    code, out, err = run(capsys, "closed", "x1", "--coords", "x1,x2")
    assert code == 3
    assert out == ""
    assert "grade 0" in err


def test_closed_takes_no_order(capsys):
    # the form carries its order; --mu picks the test order
    with pytest.raises(SystemExit) as exc:
        main(["closed", "x2 d(x1,1)", "--order", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 1" in capsys.readouterr().err


def test_closed_needs_a_positive_order(capsys):
    code, out, err = run(capsys, "closed", "x2 d(x1,1)", "--coords", "x1,x2", "--mu", "0")
    assert code == 3
    assert out == ""
    assert "order must be positive, got 0.0" in err


def test_exact_yes(capsys):
    code, out, _ = run(capsys, "exact", "2*x1*x2 d(x1,1) + x1^2 d(x2,1)")
    assert code == 0
    assert out.splitlines() == ["exact: yes", "f = x1^2*x2"]


def test_exact_no_with_residual(capsys):
    code, out, _ = run(capsys, "exact", "x2 d(x1,1)", "--coords", "x1,x2")
    assert code == 0
    assert out.splitlines() == ["exact: no", "residual (i=x1, j=x2): -1"]


def test_exact_unsupported_order_exits_4(capsys):
    # D^-0.5 of x^-1.5 leaves the operator domain, and d^0.5 alpha has no witness
    code, _, err = run(capsys, "exact", "x^-1.5 d(x,0.5)")
    assert code == 4
    assert err.startswith("unsupported:")
    assert "exponent -1.5 on x is outside the operator domain" in err
    # the form carries its order, so exact takes no --order: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["exact", "x2 d(x1,1)", "--order", "1.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["15.5", "1000000"])
def test_exact_with_a_potential_term_below_the_drop_threshold_exits_4(capsys, order):
    # the potential's coefficient 1/gamma(order + 1) is below COEFF_DROP: an
    # unsupported form, not an internal inconsistency
    code, out, err = run(capsys, "exact", f"d(x1,{order})")
    assert code == 4
    assert out == ""
    assert err.startswith(f"unsupported: D^-{order} along x1 ")
    assert "drop threshold 1e-12" in err


def test_exact_just_above_the_drop_threshold(capsys):
    code, out, _ = run(capsys, "exact", "d(x1,14.5)", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "exact"


def test_exact_and_closed_agree_at_shifted_initial_points(capsys):
    # the literal and f are read in x_i - a_i: f is (x1-1)^2*x2
    form = "2*x1*x2 d(x1,1) + x1^2 d(x2,1)"
    code, out, _ = run(capsys, "exact", form, "--origin", "1,0")
    assert code == 0
    assert out.splitlines() == ["exact: yes", "f = x1^2*x2"]
    code, out, _ = run(capsys, "closed", form, "--origin", "1,0")
    assert code == 0
    assert out == "closed: yes"


def test_exact_above_order_one(capsys):
    code, out, _ = run(capsys, "exact", "2.2567583341910254*x1^0.5*x2 d(x1,1.5) "
                       "+ 0.5641895835477563*x1^2*x2^-0.5 d(x2,1.5)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exact"
    ctx = Context.of(("x1", "x2"))
    assert exprs_close(parse_expr(payload["f"], ctx), parse_expr("x1^2*x2", ctx), tol=1e-12)


# ---------------------------------------------------------------------------
# chart verbs


def test_jacobian_classical_polar(capsys):
    code, out, _ = run(capsys, "jacobian", "--chart", "polar", "--order", "1",
                       "--point", "2,0")
    assert code == 0
    assert out == "[[1,0],[0,2]]"


def test_jacobian_scaling_prefers_closed_form(capsys):
    code, out, _ = run(capsys, "jacobian", "--chart", "scale:3", "--order", "0.5",
                       "--point", "1")
    assert code == 0
    assert out == "[[1.732050808]]"


def test_jacobian_residual_flag(capsys):
    code, out, _ = run(capsys, "jacobian", "--chart", "scale:4", "--order", "0.5",
                       "--point", "1", "--residual")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "[[2]]"
    assert lines[1] == "residual: [[0]]"


def test_jacobian_symbolic_without_point(capsys):
    code, out, _ = run(capsys, "jacobian", "--chart", "scale:3", "--order", "0.5")
    assert code == 0
    assert out == "[[1.732050808]]"


def test_jacobian_numeric_flag_forces_quadrature(capsys):
    code, out, _ = run(capsys, "jacobian", "--chart", "scale:3", "--order", "0.5",
                       "--point", "1", "--numeric")
    assert code == 0
    val = float(out.strip("[]"))
    assert val == pytest.approx(1.7320508075688772, rel=1e-6)
    assert out != "[[1.732050808]]"  # quadrature noise stays visible


@pytest.mark.parametrize("numeric", [False, True])
def test_jacobian_residual_follows_the_printed_matrix(capsys, numeric):
    # --numeric makes the chart a black box once, so J and its residual both
    # come from GL sums; without it both are symbolic and exactly diagonal
    argv = ["jacobian", "--chart", "scale:2,3", "--order", "0.5", "--point", "1,1",
            "--residual", "--json"] + (["--numeric"] if numeric else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "numeric"
    off = [payload[key][0][1] for key in ("entries", "residual")] + \
          [payload[key][1][0] for key in ("entries", "residual")]
    if numeric:
        assert all(v != 0.0 for v in off)
        chart = get_chart("scale:2,3").black_box()
        assert payload["residual"] == inverse_residual(chart, 0.5, (1.0, 1.0)).tolist()
    else:
        assert off == [0.0] * 4


def test_jacobian_json(capsys):
    code, out, _ = run(capsys, "jacobian", "--chart", "polar", "--order", "1",
                       "--point", "2,0", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["mode"] == "numeric"
    entries = payload["entries"]
    assert entries[0][0] == pytest.approx(1.0, abs=1e-8)
    assert entries[1][1] == pytest.approx(2.0, abs=1e-8)


def test_metric_scaling(capsys):
    code, out, _ = run(capsys, "metric", "--chart", "scale:3", "--order", "0.5")
    assert code == 0
    assert out == "[[3]]"


def test_metric_polar_fractional_is_numeric_at_the_point(capsys):
    code, out, _ = run(capsys, "metric", "--chart", "polar", "--order", "0.5",
                       "--point", "2,0.7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "numeric"
    want = sum(polar_radial_closed_form(k, 0.5, 2.0, 0.7) ** 2 for k in range(2))
    assert payload["entries"][0][0] == pytest.approx(want, rel=2e-3)


def test_metric_of_a_black_box_chart_needs_a_point(capsys):
    code, out, err = run(capsys, "metric", "--chart", "polar", "--order", "0.5")
    assert code == 3
    assert out == ""
    assert err == "domain error: chart 'polar' needs a point for numeric entries"


def test_lineelement_euclidean(capsys):
    code, out, _ = run(capsys, "lineelement", "--chart", "identity", "--order", "1",
                       "--point", "1,1", "--dy", "3,4")
    assert code == 0
    assert out == "5"


def test_chart_domain_error_exits_3(capsys):
    code, _, err = run(capsys, "jacobian", "--chart", "polar", "--order", "0.5",
                       "--point", "0,0.5", "--numeric")
    assert code == 3


def test_residual_domain_error_names_the_reversed_chart(capsys):
    code, out, err = run(capsys, "jacobian", "--chart", "affine:1,2;3,4", "--order", "0.5",
                         "--point", "1,2", "--residual")
    assert code == 3
    assert out == ""
    assert err == ("domain error: chart 'affine:1,2;3,4~rev', entry (k=0, i=0) along x1 "
                   "at order 0.5: integrand undefined at sample node t=3.6665")


def test_whole_numeric_order_above_three_exits_4(capsys):
    code, out, err = run(capsys, "jacobian", "--chart", "polar", "--order", "4",
                         "--point", "1,0.5")
    assert code == 4
    assert out == ""
    assert err == "unsupported: whole-order numeric derivatives go up to 3, got 4"


def test_unknown_chart_exits_3(capsys):
    code, _, err = run(capsys, "jacobian", "--chart", "what", "--order", "1",
                       "--point", "1,1")
    assert code == 3


# ---------------------------------------------------------------------------
# oracle verb


def test_oracle_reports_both_routes(capsys):
    code, out, _ = run(capsys, "oracle", "x^2", "--var", "x", "--order", "0.5",
                       "--point", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("gl: 4.255384324")
    assert "converged" in lines[0]
    assert lines[1] == "symbolic: 4.255384324"
    assert lines[2].startswith("relative difference:")


def test_oracle_plain_sum_without_extrapolation(capsys):
    code, out, _ = run(capsys, "oracle", "x", "--var", "x", "--order", "0.5",
                       "--point", "1", "--levels", "1")
    assert code == 0
    assert out.splitlines()[1] == "symbolic: 1.128379167"


# ---------------------------------------------------------------------------
# verify verb


def test_verify_all_checks_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.endswith("12/12 checks passed")


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--only", "eq63")
    assert code == 0
    assert out.startswith("eq63   PASS")
    assert out.endswith("1/1 checks passed")


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--only", "eq99")
    assert code == 2


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["passed"] == payload["total"] == 12
    ids = [c["id"] for c in payload["checks"]]
    assert ids[:2] == ["eq12", "eq20"]
    assert all(c["pass"] for c in payload["checks"])
