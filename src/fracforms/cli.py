"""Command-line front end.

Exit codes: 0 success, 1 verification-suite failure, 2 parse/usage errors,
3 domain errors (bad exponents, points outside the chart domain, poles), 4
unsupported requests.  Results go to standard output; error messages go to
standard error.  Text mode prints numbers with 10 significant digits; JSON
mode keeps full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import is_closed, solve_exact
from .charts import (
    alpha_k,
    format_matrix,
    get_chart,
    inverse_residual,
    jacobian,
    line_element,
    metric,
    polar_radial_closed_form,
)
from .errors import (
    BoundarySingularityError,
    EvalDomainError,
    ExponentDomainError,
    FracFormsError,
    NegativeQuadraticFormError,
    ParseError,
    PoleError,
    QuadratureDomainError,
    UnsupportedError,
)
from .forms import forms_close, frac_exterior_deriv, form_to_json, parse_form, print_form
from .oracle import expr_univariate, gl_deriv, richardson
from .rl import rl_deriv, rl_integ
from .specialfn import gamma_ratio, rgamma
from .symbolic import (
    Context,
    Expr,
    eval_expr,
    exprs_close,
    fmt_number,
    parse_expr,
    print_expr,
    scan_terms,
)
from .tolerances import EXP_TOL, RESIDUAL_TOL

DIGITS = 10

_DOMAIN_ERRORS = (
    ExponentDomainError,
    EvalDomainError,
    PoleError,
    BoundarySingularityError,
    QuadratureDomainError,
    NegativeQuadraticFormError,
    ValueError,
)


def _fmt(x: float) -> str:
    return fmt_number(float(x), DIGITS)


def _split_names(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise ParseError("empty coordinate list")
    return names


def _split_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated numbers, got {text!r}") from None


def infer_coords(text: str) -> tuple[str, ...]:
    """Coordinate names appearing in an input literal, sorted; the wedge
    marker d(...) is not a coordinate."""
    names = set()

    def column(name: str) -> int:
        names.add(name)
        return 0

    scan_terms(text, column, 1, lambda coord, order: None)
    return tuple(sorted(names))


def _context(args, input_text: str | None = None) -> Context:
    if getattr(args, "coords", None):
        names = _split_names(args.coords)
    elif input_text is not None:
        names = infer_coords(input_text)
        if not names:
            raise ParseError(
                "cannot infer coordinates from the input; pass --coords")
    else:
        raise ParseError("this command requires --coords")
    origin = None
    if getattr(args, "origin", None):
        origin = _split_floats(args.origin)
        if len(origin) != len(names):
            raise ParseError(
                f"--origin has {len(origin)} entries for {len(names)} coordinates")
    return Context.of(names, origin)


def _emit(args, text_lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


# --- expression verbs --------------------------------------------------------


def cmd_deriv(args) -> int:
    ctx = _context(args, args.expr)
    e = parse_expr(args.expr, ctx)
    out = rl_deriv(e, args.var, args.order, ctx)
    _emit(args, [print_expr(out, ctx, DIGITS)],
          {"expr": print_expr(out, ctx), "order": args.order, "var": args.var})
    return 0


def cmd_integ(args) -> int:
    ctx = _context(args, args.expr)
    e = parse_expr(args.expr, ctx)
    out = rl_integ(e, args.var, args.order, ctx)
    _emit(args, [print_expr(out, ctx, DIGITS)],
          {"expr": print_expr(out, ctx), "order": -args.order, "var": args.var})
    return 0


def cmd_dv(args) -> int:
    if args.order < 0:
        raise ValueError(f"exterior derivative order must be >= 0, got {args.order}")
    ctx = _context(args, args.input)
    form = parse_form(args.input, ctx)
    out = frac_exterior_deriv(form, args.order, ctx)
    _emit(args, [print_form(out, ctx, DIGITS)],
          {"form": form_to_json(out, ctx)})
    return 0


def cmd_closed(args) -> int:
    ctx = _context(args, args.input)
    form = parse_form(args.input, ctx)
    nu = form.total_order
    if args.order is not None and abs(args.order - nu) > EXP_TOL:
        raise ValueError(f"--order {args.order} does not match the form's order {nu}")
    mu = args.mu if args.mu is not None else nu
    report = is_closed(form, mu, ctx)
    lines = [f"closed: {'yes' if report.closed else 'no'}"]
    wit_json = []
    for i, j, res in report.witnesses:
        lines.append(f"witness (i={ctx.names[i]}, j={ctx.names[j]}): "
                     f"{print_expr(res, ctx, DIGITS)}")
        wit_json.append({"i": ctx.names[i], "j": ctx.names[j],
                         "residual": print_expr(res, ctx)})
    _emit(args, lines, {"closed": report.closed, "mu": report.mu,
                        "nu": report.nu, "witnesses": wit_json})
    return 0


def cmd_exact(args) -> int:
    ctx = _context(args, args.input)
    form = parse_form(args.input, ctx)
    nu = args.order if args.order is not None else form.total_order
    result = solve_exact(form, nu, ctx)
    if result.status == "unsupported":
        raise UnsupportedError(result.reason or "unsupported")
    if result.status == "exact":
        lines = ["exact: yes", f"f = {print_expr(result.f, ctx, DIGITS)}"]
        payload = {"status": "exact", "f": print_expr(result.f, ctx),
                   "kernel": [print_expr(k, ctx) for k in result.kernel]}
    else:
        lines = ["exact: no",
                 f"residual (i={ctx.names[result.i]}, j={ctx.names[result.j]}): "
                 f"{print_expr(result.residual, ctx, DIGITS)}"]
        payload = {"status": "not_integrable",
                   "i": ctx.names[result.i], "j": ctx.names[result.j],
                   "residual": print_expr(result.residual, ctx)}
    _emit(args, lines, payload)
    return 0


# --- chart verbs ---------------------------------------------------------------


def _matrix_of(args, builder):
    """``builder`` (jacobian or metric) of the --chart at --order, with the
    chart's maps as black boxes under --numeric."""
    point = _split_floats(args.point) if args.point else None
    chart = get_chart(args.chart, n=len(point) if point else None)
    if args.numeric:
        chart = chart.black_box()
    return builder(chart, args.order, point, args.h, args.levels), chart, point


def _matrix_lines(mat) -> list[str]:
    if mat.mode == "numeric":
        return [format_matrix(mat.entries, DIGITS)]
    rows = "],[".join(
        ",".join(print_expr(e, mat.chart.ctx_y, DIGITS) for e in row)
        for row in mat.entries)
    return [f"[[{rows}]]"]


def cmd_jacobian(args) -> int:
    J, chart, point = _matrix_of(args, jacobian)
    lines = _matrix_lines(J)
    payload = J.to_json()
    if args.residual:
        if point is None:
            raise ValueError("--residual needs --point")
        res = inverse_residual(chart, args.order, point,
                               h0=args.h, levels=args.levels)
        lines.append("residual: " + format_matrix(res, DIGITS))
        payload["residual"] = [[float(v) for v in row] for row in res]
    _emit(args, lines, payload)
    return 0


def cmd_metric(args) -> int:
    g, chart, point = _matrix_of(args, metric)
    _emit(args, _matrix_lines(g), g.to_json())
    return 0


def cmd_lineelement(args) -> int:
    if not args.point:
        raise ValueError("lineelement needs --point")
    g, chart, point = _matrix_of(args, metric)
    dy = _split_floats(args.dy)
    ds = line_element(g, dy)
    _emit(args, [_fmt(ds)], {"ds": ds, "nu": args.order,
                             "point": list(point), "dy": list(dy)})
    return 0


# --- numerics verbs -------------------------------------------------------------


def cmd_oracle(args) -> int:
    ctx = _context(args, args.expr)
    e = parse_expr(args.expr, ctx)
    point = _split_floats(args.point)
    if len(point) != ctx.n:
        raise ValueError(f"point has {len(point)} coordinates, context has {ctx.n}")
    var = ctx.index(args.var)
    f = expr_univariate(e, ctx, var, point)
    x = float(point[var])
    a = ctx.initial_points[var]
    if args.levels <= 1:
        value = gl_deriv(f, args.order, x, a, args.h)
        est, converged = float("nan"), None
    else:
        res = richardson(f, args.order, x, a, h0=args.h, levels=args.levels)
        value, est, converged = res.value, res.error_estimate, res.converged
    sym = rl_deriv(e, var, args.order, ctx)
    sym_val = eval_expr(sym, ctx, point)
    denom = max(abs(sym_val), abs(value), 1e-300)
    rel = abs(sym_val - value) / denom
    lines = [f"gl: {_fmt(value)}"]
    if converged is not None:
        lines[0] += f" (error estimate {est:.3e}, {'converged' if converged else 'NOT converged'})"
    lines.append(f"symbolic: {_fmt(sym_val)}")
    lines.append(f"relative difference: {rel:.3e}")
    _emit(args, lines, {"gl": value, "error_estimate": est, "converged": converged,
                        "symbolic": sym_val, "relative_difference": rel})
    return 0


# --- the reproduction suite -----------------------------------------------------


def _check_eq12():
    ctx = Context.of(("x",))
    sym = rl_deriv(Expr.constant(1.0, 1), 0, 0.5, ctx)
    val = eval_expr(sym, ctx, (4.0,))
    gl = gl_deriv(lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
                  0.5, 4.0, 0.0, 1e-4)
    ok = abs(val - 0.2820947918) <= 1e-9 and abs(gl - val) / abs(val) <= 1e-3
    return ok, "0.2820947918", f"{val!r} (gl {gl!r})"


def _expected_eq20(ctx, p=2.0, nu=0.5):
    cx = gamma_ratio((p + 1.0,), (p - nu + 1.0,))
    cy = rgamma(1.0 - nu)
    return (parse_form(f"{cx!r}*x^{p - nu!r} d(x,{nu!r})", ctx)
            + parse_form(f"{cy!r}*x^{p!r}*y^{-nu!r} d(y,{nu!r})", ctx))


def _check_eq20():
    ctx = Context.of(("x", "y"))
    got = frac_exterior_deriv(parse_expr("x^2", ctx), 0.5, ctx)
    want = _expected_eq20(ctx)
    return (forms_close(got, want), print_form(want, ctx, DIGITS),
            print_form(got, ctx, DIGITS))


def _check_scalar(nu, want_text):
    ctx = Context.of(("x", "y"))
    got = frac_exterior_deriv(parse_expr("x^2", ctx), nu, ctx)
    want = parse_form(want_text, ctx)
    return forms_close(got, want), want_text, print_form(got, ctx, DIGITS)


def _check_eq45():
    ctx = Context.of(("x1", "x2"))
    form = parse_form("2*x1*x2 d(x1,1) + x1^2 d(x2,1)", ctx)
    report = is_closed(form, 1.0, ctx)
    return report.closed, "closed", "closed" if report.closed else "not closed"


def _check_eq54():
    ctx = Context.of(("x",))
    out = rl_deriv(alpha_k(0, 0.5, ctx), 0, 0.5, ctx)
    ok = exprs_close(out, Expr.constant(1.0, 1), RESIDUAL_TOL)
    return ok, "1", print_expr(out, ctx, DIGITS)


def _check_polar_fractional(k):
    J = jacobian(get_chart("polar"), 0.5, (2.0, math.pi / 4))
    got = J.entries[k][0]
    want = polar_radial_closed_form(k, 0.5, 2.0, math.pi / 4)
    return abs(got - want) / abs(want) <= 1e-3, repr(want), repr(got)


def _check_polar_classical(k):
    r, th = 2.0, math.pi / 3
    J = jacobian(get_chart("polar"), 1.0, (r, th))
    want = [(math.cos(th), -r * math.sin(th)),
            (math.sin(th), r * math.cos(th))][k]
    got = J.entries[k]
    err = max(abs(a - b) for a, b in zip(got, want))
    return err <= 1e-8, format_matrix([want], DIGITS), format_matrix([got], DIGITS)


def _check_eq67():
    r = 2.0
    g = metric(get_chart("polar"), 1.0, (r, 0.7)).as_array()
    want = np.diag([1.0, r * r])
    err = float(np.max(np.abs(g - want)))
    return err <= 1e-8, format_matrix(want, DIGITS), format_matrix(g, DIGITS)


VERIFY_CHECKS = (
    ("eq12", "order-1/2 derivative of a constant at x=4, plus GL confirmation",
     _check_eq12),
    ("eq20", "two-term order-1/2 exterior derivative of x^2 in 2D", _check_eq20),
    ("eq21", "order-0 exterior derivative collapses to the scalar 2x^2",
     lambda: _check_scalar(0.0, "2*x^2")),
    ("eq22", "order-1 exterior derivative is the classical gradient form",
     lambda: _check_scalar(1.0, "2*x d(x,1)")),
    ("eq23", "order-2 exterior derivative annihilates the cross term",
     lambda: _check_scalar(2.0, "2 d(x,2)")),
    ("eq45", "classical curl test closes 2*x1*x2 dx1 + x1^2 dx2", _check_eq45),
    ("eq54", "kernel-adapted coordinate differentiates to exactly 1 (n=1)",
     _check_eq54),
    ("eq63", "fractional polar dr entry, row 1: GL numerics vs closed form",
     lambda: _check_polar_fractional(0)),
    ("eq64", "fractional polar dr entry, row 2: GL numerics vs closed form",
     lambda: _check_polar_fractional(1)),
    ("eq65", "classical polar row 1 (cos, -r sin)",
     lambda: _check_polar_classical(0)),
    ("eq66", "classical polar row 2 (sin, r cos)",
     lambda: _check_polar_classical(1)),
    ("eq67", "classical polar metric diag(1, r^2)", _check_eq67),
)


def cmd_verify(args) -> int:
    ids = [c[0] for c in VERIFY_CHECKS]
    selected = VERIFY_CHECKS
    if args.only:
        if args.only not in ids:
            print(f"unknown check {args.only!r}; available: {', '.join(ids)}",
                  file=sys.stderr)
            return 2
        selected = tuple(c for c in VERIFY_CHECKS if c[0] == args.only)
    results = []
    for name, desc, fn in selected:
        ok, want, got = fn()
        results.append({"id": name, "description": desc, "pass": bool(ok),
                        "expected": want, "computed": got})
    all_ok = all(r["pass"] for r in results)
    if args.json:
        print(json.dumps({"ok": all_ok,
                          "passed": sum(r["pass"] for r in results),
                          "total": len(results), "checks": results}))
    else:
        for r in results:
            status = "PASS" if r["pass"] else "FAIL"
            print(f"{r['id']:<6} {status}  {r['description']}")
            print(f"       expected {r['expected']}")
            print(f"       computed {r['computed']}")
        print(f"{sum(r['pass'] for r in results)}/{len(results)} checks passed")
    return 0 if all_ok else 1


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="frac",
        description="Symbolic-numeric fractional calculus and fractional forms.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, coords=True, order=True):
        if coords:
            sp.add_argument("--coords", help="comma-separated coordinate names")
            sp.add_argument("--origin", help="comma-separated initial points (default 0)")
        if order:
            sp.add_argument("--order", type=float, required=order == "required",
                            help="differintegral order")
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("deriv", help="fractional derivative of an expression")
    common(sp, order="required")
    sp.add_argument("--var", required=True, help="coordinate to differentiate along")
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_deriv)

    sp = sub.add_parser("integ", help="fractional integral of an expression")
    common(sp, order="required")
    sp.add_argument("--var", required=True)
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_integ)

    sp = sub.add_parser("dv", help="fractional exterior derivative")
    common(sp, order="required")
    sp.add_argument("input", help="expression or form literal")
    sp.set_defaults(func=cmd_dv)

    sp = sub.add_parser("closed", help="order-mu closedness test for a grade-1 form")
    common(sp)
    sp.add_argument("--mu", type=float, help="test order, > 0 (defaults to the form's order)")
    sp.add_argument("input", help="form literal")
    sp.set_defaults(func=cmd_closed)

    text = ("reconstruct a potential for a grade-1 form of any order > 0 at any "
            "initial points, or print the closure witness `frac closed` prints")
    sp = sub.add_parser("exact", help=text, description=text)
    common(sp)
    sp.add_argument("input", help="form literal")
    sp.set_defaults(func=cmd_exact)

    for verb, fn in (("jacobian", cmd_jacobian), ("metric", cmd_metric),
                     ("lineelement", cmd_lineelement)):
        sp = sub.add_parser(verb, help=f"fractional {verb} of a registry chart")
        sp.add_argument("--chart", required=True,
                        help="polar | identity | scale:c1,... | affine:a,b;c,d")
        sp.add_argument("--order", type=float, required=True)
        sp.add_argument("--point", help="y-point to evaluate the entries at")
        sp.add_argument("--h", type=float, default=1e-3, help="base GL step")
        sp.add_argument("--levels", type=int, default=3, help="extrapolation levels")
        sp.add_argument("--numeric", action="store_true",
                        help="evaluate the chart's maps as black boxes: "
                             "GL/central-difference entries at --point")
        sp.add_argument("--json", action="store_true")
        if verb == "jacobian":
            sp.add_argument("--residual", action="store_true",
                            help="also print the inverse-identity residual")
        if verb == "lineelement":
            sp.add_argument("--dy", required=True,
                            help="comma-separated displacement components")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("oracle", help="GL numeric check of a symbolic derivative")
    common(sp, order="required")
    sp.add_argument("--var", required=True)
    sp.add_argument("--point", required=True, help="full evaluation point")
    sp.add_argument("--h", type=float, default=1e-4, help="base GL step")
    sp.add_argument("--levels", type=int, default=3,
                    help="Richardson levels; 1 disables extrapolation")
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("verify", help="run the built-in reproduction suite")
    sp.add_argument("--only", help="run a single check by id")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except FracFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
