"""Acceptance checks: one test per criterion, run with ``pytest -v`` for a
one-line pass/fail report per item.

Every expected number is either a closed-form gamma expression evaluated
through an independent high-precision route and frozen here, or is produced
by the Grunwald-Letnikov quadrature oracle, which shares no code with the
symbolic engine.
"""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracforms
from fracforms import (
    Context,
    DiffFactor,
    Expr,
    Form,
    WedgeWord,
    classical_derivative,
    compose_residual,
    eval_expr,
    exprs_close,
    forms_close,
    frac_exterior_deriv,
    gl_deriv,
    integrability_residual,
    inverse_residual,
    is_closed,
    jacobian,
    kernel_basis_dv,
    metric,
    monomial,
    parse_expr,
    print_form,
    product_rule_series,
    richardson,
    rl_deriv,
    rl_integ,
    solve_exact,
)
from fracforms.charts import get_chart, polar_radial_closed_form

X = Context.of(("x",))
XY = Context.of(("x", "y"))


def _max_coeff(e):
    return max((abs(c) for c in e.coeffs.tolist()), default=0.0)


def _random_poly(rng, ctx, max_terms=3):
    # small integer exponents keep classical and fractional routes in domain
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice([-1, 1]) * rng.uniform(0.5, 3.0)
        exps = tuple(float(rng.randint(0, 3)) for _ in range(ctx.n))
        terms.append((coeff, exps))
    if all(sum(e) == 0 for _, e in terms):
        terms.append((1.0, (1.0,) + (0.0,) * (ctx.n - 1)))
    return Expr.make(terms, ctx.n)


def test_01_half_derivative_of_constant_dual_route():
    expr = rl_deriv(parse_expr("1", X), "x", 0.5, X)
    sym = eval_expr(expr, X, (4.0,))
    assert abs(sym - 0.2820947918) <= 1e-9
    num = gl_deriv(lambda t: 1.0, 0.5, 4.0, 0.0, 1e-4)
    assert abs(num - sym) / abs(sym) <= 1e-3


def test_02_power_rule_matches_gl_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(0.0, 4.0)
        q = rng.uniform(0.0, 2.0)
        x = rng.uniform(0.5, 3.0)
        sym = eval_expr(rl_deriv(monomial(X, 1.0, {"x": p}), "x", q, X), X, (x,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            num = richardson(lambda t: t ** p, q, x, 0.0, h0=1e-4, levels=4).value
        rel = abs(sym - num) / max(abs(sym), abs(num))
        worst = max(worst, rel)
    assert worst <= 1e-4, f"worst relative disagreement {worst:.3e}"


def test_03_graded_derivative_of_square_across_orders():
    f = parse_expr("x^2", XY)
    # fractional case: two-term output, coefficients frozen from 50-digit gamma
    got = frac_exterior_deriv(f, 0.5, XY)
    cx = got.coefficient(WedgeWord((DiffFactor(0, 0.5),)), 2)
    cy = got.coefficient(WedgeWord((DiffFactor(1, 0.5),)), 2)
    assert len(got.terms) == 2
    assert cx.exponents.tolist() == [[1.5, 0.0]]
    assert cx.coeffs[0] == pytest.approx(1.5045055561273501, rel=1e-13)
    assert cy.exponents.tolist() == [[2.0, -0.5]]
    assert cy.coeffs[0] == pytest.approx(0.5641895835477563, rel=1e-13)
    # whole orders collapse to exact canonical strings
    assert print_form(frac_exterior_deriv(f, 0.0, XY), XY) == "2*x^2"
    assert print_form(frac_exterior_deriv(f, 1.0, XY), XY) == "2*x d(x,1)"
    assert print_form(frac_exterior_deriv(f, 2.0, XY), XY) == "2 d(x,2)"


def test_04_product_series_terminates_on_polynomials():
    f = parse_expr("x^2", X)
    g = parse_expr("x^3", X)
    series = product_rule_series(f, g, "x", 0.5, X)
    direct = rl_deriv(parse_expr("x^5", X), "x", 0.5, X)
    assert not series.truncated
    assert exprs_close(series.expr, direct, tol=1e-10)


def test_05_composition_correction_and_plain_chain_failure():
    res = compose_residual(parse_expr("x", X), "x", 0.5, 0.5, X)
    assert _max_coeff(res) <= 1e-10
    # naive composition drops annihilated terms: integrating the half
    # derivative of x^-0.5 returns zero, not the original function
    e = monomial(X, 1.0, {"x": -0.5})
    inner = rl_deriv(e, "x", 0.5, X)
    assert len(inner.coeffs) == 0
    back = rl_integ(inner, "x", 0.5, X)
    assert len(back.coeffs) == 0
    assert len(e.coeffs) != 0


def test_06_kernel_basis_is_annihilated():
    for n in (1, 2, 3):
        ctx = Context.of(tuple(f"x{i + 1}" for i in range(n)))
        for nu in (0.3, 0.5, 1.0, 1.5, 2.7):
            basis = kernel_basis_dv(nu, ctx)
            assert basis
            for e in basis:
                image = frac_exterior_deriv(e, nu, ctx)
                worst = max((_max_coeff(c) for c in image.terms.values()),
                            default=0.0)
                assert worst <= 1e-10, f"n={n}, nu={nu}"


def test_07_closed_and_exact_match_classical_curl():
    rng = random.Random(7)
    checked_exact = 0
    for trial in range(100):
        if trial % 2 == 0:
            f = _random_poly(rng, XY)
            alpha = frac_exterior_deriv(f, 1.0, XY)
        else:
            alpha = Form(1, 1.0, {
                WedgeWord((DiffFactor(0, 1.0),)): _random_poly(rng, XY),
                WedgeWord((DiffFactor(1, 1.0),)): _random_poly(rng, XY),
            })
        a0 = alpha.component(0, 2)
        a1 = alpha.component(1, 2)
        curl = classical_derivative(a1, 0) - classical_derivative(a0, 1)
        res = integrability_residual(alpha, 0, 1, XY)
        assert exprs_close(res, curl, tol=1e-10)
        report = is_closed(alpha, 1.0, XY)
        assert report.closed == (_max_coeff(curl) <= 1e-10)
        if report.closed:
            sol = solve_exact(alpha, 1.0, XY)
            assert sol.status == "exact"
            assert forms_close(frac_exterior_deriv(sol.f, 1.0, XY), alpha, tol=1e-9)
            checked_exact += 1
    assert checked_exact >= 50


def test_08_fractional_exact_forms_round_trip():
    for nu in (0.25, 0.5, 0.75):
        rng = random.Random(int(nu * 100))
        for _ in range(20):
            f = _random_poly(rng, XY)
            alpha = frac_exterior_deriv(f, nu, XY)
            sol = solve_exact(alpha, nu, XY)
            assert sol.status == "exact", f"nu={nu}"
            assert forms_close(frac_exterior_deriv(sol.f, nu, XY), alpha, tol=1e-9)


def test_09_polar_jacobian_and_metric_reduce_classically():
    import numpy as np

    chart = get_chart("polar")
    rng = random.Random(9)
    for _ in range(10):
        r = rng.uniform(0.5, 3.0)
        th = rng.uniform(0.1, 6.1)
        J = jacobian(chart, 1.0, (r, th)).as_array()
        expected = np.array([[math.cos(th), -r * math.sin(th)],
                             [math.sin(th), r * math.cos(th)]])
        assert np.max(np.abs(J - expected)) <= 1e-8
        g = metric(chart, 1.0, (r, th)).as_array()
        assert np.max(np.abs(g - np.diag([1.0, r * r]))) <= 1e-8


def test_10_fractional_polar_radial_entries_match_quadrature():
    chart = get_chart("polar")
    point = (2.0, math.pi / 4)
    J = jacobian(chart, 0.5, point, h0=1e-4)
    for k in (0, 1):
        closed = polar_radial_closed_form(k, 0.5, *point)
        got = J.entries[k][0]
        assert abs(got - closed) / abs(closed) <= 1e-3


def test_11_inverse_jacobian_residuals():
    import numpy as np

    exact = inverse_residual(get_chart("scale:4"), 0.5, (1.0,))
    assert exact.shape == (1, 1) and exact[0][0] == 0.0
    polar = inverse_residual(get_chart("polar"), 1.0, (2.0, math.pi / 3))
    assert np.max(np.abs(polar)) <= 1e-6
    # n >= 2 fractional residual is diagnostic only: finite and well formed
    diag = inverse_residual(get_chart("scale:2,3"), 0.5, (1.0, 1.0))
    assert diag.shape == (2, 2) and np.all(np.isfinite(diag))


def test_12_cli_verify_suite_exits_clean():
    # the child process imports the same fracforms as this test, also when
    # pytest found it through its own pythonpath setting
    src = str(Path(fracforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "fracforms", "verify"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "12/12 checks passed" in proc.stdout
