"""Coordinate charts, fractional Jacobians, and the induced metric.

Numeric entries are produced by extrapolated quadrature along coordinate
lines; reference values are classical closed forms evaluated with plain
floating point.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from fracforms import (
    Chart,
    Context,
    Expr,
    MetricMatrix,
    NegativeQuadraticFormError,
    QuadratureDomainError,
    UnsupportedError,
    alpha_k,
    eval_expr,
    exprs_close,
    frac_exterior_deriv,
    get_chart,
    inverse_residual,
    jacobian,
    line_element,
    metric,
    monomial,
    parse_expr,
    parse_form,
    print_form,
    rl_deriv,
    transform_form,
)
from fracforms import symbolic
from fracforms.charts import format_matrix, polar_radial_closed_form

X1 = Context.of(("x",))
XY = Context.of(("x1", "x2"))


# ---------------------------------------------------------------------------
# chart registry


def test_registry_names_and_contexts():
    polar = get_chart("polar")
    assert polar.ctx_y.names == ("r", "theta")
    assert not polar.is_symbolic
    ident = get_chart("identity", n=3)
    assert ident.n == 3
    assert ident.is_symbolic
    scale = get_chart("scale:2,3")
    assert scale.ctx_x.names == ("x1", "x2")


@pytest.mark.parametrize(
    "spec", ["scale:0", "affine:1,2;2,4", "nope", "affine:1,2;3", "scale:"]
)
def test_registry_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        get_chart(spec)


def test_affine_singularity_is_judged_by_condition_number():
    # a uniform scale by 1e-7 has condition number 1, as its scale chart
    tiny = get_chart("affine:1e-7,0;0,1e-7")
    assert tiny.x_of((1.0, 2.0)) == get_chart("scale:1e-7,1e-7").x_of((1.0, 2.0))
    # condition number 8e15, beyond 1/eps: singular to working precision
    with pytest.raises(ValueError, match="singular"):
        get_chart("affine:1e6,2e6;1e6,2000000.000000001")


def test_charts_validate_round_trip():
    for spec in ("polar", "identity", "scale:2,3", "affine:1,2;3,4"):
        ch = get_chart(spec, n=2) if spec == "identity" else get_chart(spec)
        ch.validate()


def test_validate_catches_wrong_inverse():
    ch = get_chart("scale:2")
    broken = Chart(ch.name, ch.ctx_x, ch.ctx_y, ch.forward, ch.forward)
    with pytest.raises(ValueError):
        broken.validate()


def test_reversed_swaps_directions():
    ch = get_chart("scale:2")  # x = 2y
    assert ch.x_of((2.0,))[0] == pytest.approx(4.0)
    rev = ch.reversed()
    assert rev.ctx_x.names == ch.ctx_y.names
    assert rev.x_of((2.0,))[0] == pytest.approx(1.0)
    assert rev.y_of((2.0,))[0] == pytest.approx(4.0)


@pytest.mark.parametrize("spec", ["affine:1,2;3,4", "affine:2,1e-13;0.5,3",
                                  "affine:1,0,2;0,3,0;-1,0.5,4"])
def test_affine_maps_are_the_matrix_rows(spec):
    # each map is Expr(row, I, k): the same arrays as the sum of its monomials
    ch = get_chart(spec)
    k = ch.n
    m = np.array([[float(v) for v in row.split(",")] for row in spec[7:].split(";")])
    for maps, mat, ctx in ((ch.forward, m, ch.ctx_y), (ch.inverse, np.linalg.inv(m), ch.ctx_x)):
        for f, row in zip(maps, mat):
            want = sum((monomial(ctx, c, {j: 1.0}) for j, c in enumerate(row) if c != 0),
                       Expr.zero(k))
            assert f == want


def test_black_box_replaces_every_expr_map():
    ch = get_chart("affine:1,2;3,4")
    box = ch.black_box()
    assert (box.name, box.ctx_x, box.ctx_y) == (ch.name, ch.ctx_x, ch.ctx_y)
    assert not any(isinstance(f, Expr) for f in box.forward + box.inverse)
    assert not box.is_symbolic
    assert box.x_of((0.7, 1.3)) == pytest.approx(ch.x_of((0.7, 1.3)), abs=1e-15)
    assert box.y_of((0.7, 1.3)) == pytest.approx(ch.y_of((0.7, 1.3)), abs=1e-15)
    polar = get_chart("polar")
    assert polar.black_box().forward == polar.forward


def test_affine_inverse_is_materialized():
    ch = get_chart("affine:1,2;3,4")
    y = ch.y_of((5.0, 6.0))
    back = ch.x_of(y)
    assert back[0] == pytest.approx(5.0, abs=1e-12)
    assert back[1] == pytest.approx(6.0, abs=1e-12)


# ---------------------------------------------------------------------------
# dual-basis scalars


def test_alpha_k_one_coordinate_is_dual_to_the_differential():
    a = alpha_k(0, 0.5, X1)
    image = frac_exterior_deriv(a, 0.5, X1)
    assert print_form(image, X1) == "d(x,0.5)"


@pytest.mark.parametrize("nu", [0.4, 1.0, 1.6])
def test_alpha_k_other_coordinates_are_annihilated(nu):
    for k in (0, 1):
        a = alpha_k(k, nu, XY)
        other = 1 - k
        assert len(rl_deriv(a, other, nu, XY).coeffs) == 0


def test_alpha_k_own_derivative_carries_kernel_factors():
    a = alpha_k(0, 0.5, XY)
    got = rl_deriv(a, 0, 0.5, XY)
    # what remains is exactly the spectator-kernel factor
    assert exprs_close(got, monomial(XY, 1.0, {1: -0.5}), tol=1e-12)


@pytest.mark.parametrize("nu", [math.inf, math.nan, 0.0])
def test_alpha_k_rejects_an_order_that_is_not_positive_and_finite(nu):
    with pytest.raises(ValueError, match=f"alpha_k order must be positive and finite, got {nu}"):
        alpha_k(0, nu, XY)


def test_alpha_k_whole_order_is_the_plain_power():
    a = alpha_k(0, 1.0, XY)
    assert exprs_close(a, parse_expr("x1", XY), tol=1e-12)


# ---------------------------------------------------------------------------
# jacobians, symbolic route


def test_scaling_chart_symbolic_jacobian():
    J = jacobian(get_chart("scale:3"), 0.5)
    assert J.mode == "symbolic"
    assert exprs_close(J.entries[0][0], monomial(X1, math.sqrt(3.0), {}), tol=1e-12)


def test_identity_chart_whole_order_is_identity():
    J = jacobian(get_chart("identity", n=2), 1.0)
    for k in range(2):
        for i in range(2):
            want = 1.0 if i == k else 0.0
            assert exprs_close(J.entries[k][i], monomial(XY, want, {}), tol=1e-12)


def test_scaling_chart_fractional_entries_depend_on_spectators():
    J = jacobian(get_chart("scale:2,3"), 0.5)
    got = J.evaluate((1.0, 1.0)).as_array()
    # diag_k = c_k^nu * prod_{i != k} c_i^(nu-1) evaluated with all x_i = 1
    want = np.diag([math.sqrt(2.0) / math.sqrt(3.0), math.sqrt(3.0) / math.sqrt(2.0)])
    assert np.allclose(got, want, atol=1e-12)


def test_one_policy_gives_exact_zeros_above_order_two():
    # symbolic entries evaluated at the point: the zeros are exact, where GL
    # sums of the black-box maps miss them by up to 3.6e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = jacobian(get_chart("identity", 3), 2.5, (1.9, 1.69, 1.48)).as_array()
    assert np.all(J[~np.eye(3, dtype=bool)] == 0.0)
    assert np.all(np.diag(J) > 0.0)


def test_expr_chart_without_a_closed_power_rule_needs_a_point():
    # multi-term maps at a fractional order: no symbolic entries exist
    with pytest.raises(UnsupportedError):
        jacobian(get_chart("affine:1,2;3,4"), 0.5)


def test_expr_chart_without_a_closed_power_rule_is_numeric_at_a_point():
    ch = get_chart("affine:1,2;3,4")
    J = jacobian(ch, 0.5, (1.0, 2.0))
    assert J.mode == "numeric" and J.chart is ch
    assert np.array_equal(J.as_array(), jacobian(ch.black_box(), 0.5, (1.0, 2.0)).as_array())


def test_black_box_chart_needs_a_point():
    with pytest.raises(ValueError, match="^chart 'polar' needs a point for numeric entries$"):
        jacobian(get_chart("polar"), 0.5)
    with pytest.raises(ValueError, match="needs a point"):
        jacobian(get_chart("scale:2").black_box(), 0.5)


@pytest.mark.parametrize("spec", ["scale:2,3", "affine:1,2;3,4", "identity"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("offset", [-5e-10, 5e-10])
def test_whole_orders_inside_the_window_are_the_whole_order(spec, k, offset):
    # an order within EXP_TOL of k is k for the integrand, q and the extra
    # gamma(nu + 1) denominator alike
    ch = get_chart(spec, 2)
    want = jacobian(ch, float(k)).evaluate((1.2, 0.7))
    got = jacobian(ch, k + offset).evaluate((1.2, 0.7))
    assert got.nu == k
    assert np.array_equal(got.as_array(), want.as_array())


def test_symbolic_jacobian_whole_order_matches_classical():
    J = jacobian(get_chart("affine:1,2;3,4"), 1.0)
    got = J.evaluate((0.7, 1.3)).as_array()
    assert np.allclose(got, [[1.0, 2.0], [3.0, 4.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# jacobians, numeric route


def test_polar_classical_jacobian():
    r, th = 2.0, math.pi / 3.0
    J = jacobian(get_chart("polar"), 1.0, point=(r, th)).as_array()
    want = np.array(
        [
            [math.cos(th), -r * math.sin(th)],
            [math.sin(th), r * math.cos(th)],
        ]
    )
    assert np.max(np.abs(J - want)) <= 1e-8


def test_polar_classical_jacobian_random_points():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = float(rng.uniform(0.5, 3.0))
        th = float(rng.uniform(0.1, 1.4))
        J = jacobian(get_chart("polar"), 1.0, point=(r, th)).as_array()
        want = np.array(
            [
                [math.cos(th), -r * math.sin(th)],
                [math.sin(th), r * math.cos(th)],
            ]
        )
        assert np.max(np.abs(J - want)) <= 1e-8


@pytest.mark.parametrize("k", [0, 1])
def test_polar_fractional_radial_column(k):
    r, th = 2.0, math.pi / 4.0
    J = jacobian(get_chart("polar"), 0.5, point=(r, th), h0=1e-4)
    got = J.entries[k][0]
    want = polar_radial_closed_form(k, 0.5, r, th)
    assert got == pytest.approx(want, rel=1e-3)


def test_numeric_jacobian_requires_point_above_anchor():
    with pytest.raises(QuadratureDomainError):
        jacobian(get_chart("polar"), 0.5, point=(0.0, 0.5))


@pytest.mark.parametrize("nu", [math.inf, math.nan])
def test_jacobian_rejects_an_order_that_is_not_finite(nu):
    for chart in (get_chart("polar"), get_chart("scale:2")):
        with pytest.raises(ValueError, match=f"jacobian order must be positive and finite, got {nu}"):
            jacobian(chart, nu, (2.0,) * chart.n)


@pytest.mark.parametrize("h0", [0.0, -0.1, math.inf, math.nan])
def test_numeric_jacobian_rejects_a_step_that_is_not_positive_and_finite(h0):
    with pytest.raises(ValueError, match=f"GL step must be positive and finite, got {h0}"):
        jacobian(get_chart("polar"), 0.5, (2.0, 0.7), h0=h0)


def test_numeric_entry_domain_error_names_the_chart_entry_and_order():
    # the reversed affine chart's GL samples along x1 reach a negative base
    # of the nu - m spectator power
    with pytest.raises(QuadratureDomainError) as info:
        inverse_residual(get_chart("affine:1,2;3,4"), 0.5, (1.0, 2.0))
    assert str(info.value) == ("chart 'affine:1,2;3,4~rev', entry (k=0, i=0) along x1 "
                               "at order 0.5: integrand undefined at sample node t=3.6665")
    assert isinstance(info.value.__cause__, QuadratureDomainError)


def test_numeric_mode_matches_symbolic_for_scaling():
    sym = jacobian(get_chart("scale:2"), 0.5).evaluate((1.5,)).as_array()
    num = jacobian(get_chart("scale:2").black_box(), 0.5, point=(1.5,)).as_array()
    assert np.allclose(num, sym, rtol=1e-6)
    assert not np.array_equal(num, sym)  # quadrature noise: the numeric path ran


def test_numeric_entries_of_expr_charts_do_not_call_the_symbolic_evaluator(monkeypatch):
    chart = get_chart("scale:3")
    sym = jacobian(chart, 0.5).evaluate((1.0,)).as_array()

    def boom(*args, **kwargs):
        raise AssertionError("the numeric chart path called symbolic.term_values")

    # every module's binding of the evaluator, not just the defining one
    evaluator = symbolic.term_values
    for name, module in list(sys.modules.items()):
        if name.startswith("fracforms") and getattr(module, "term_values", None) is evaluator:
            monkeypatch.setattr(module, "term_values", boom)
    # the default h0 = 1e-3 misses by 1.5e-7: an h^1.5 error term that the
    # integer-exponent extrapolation does not remove
    num = jacobian(chart.black_box(), 0.5, (1.0,), h0=1e-4).as_array()
    assert np.max(np.abs(num - sym)) <= 1e-8


# ---------------------------------------------------------------------------
# inverse composition


def test_scaling_inverse_residual_is_exactly_zero():
    res = inverse_residual(get_chart("scale:4"), 0.5, (1.0,))
    assert res.shape == (1, 1)
    assert res[0, 0] == 0.0


def test_polar_classical_inverse_residual_small():
    res = inverse_residual(get_chart("polar"), 1.0, (2.0, math.pi / 4.0))
    assert np.max(np.abs(res)) <= 1e-6


def test_fractional_chain_rule_defect_is_real():
    # fractional jacobians do not compose to the identity; the defect for a
    # diagonal scaling is diag(prod_{i != k} c_i^(nu-1) * c_i^(1-nu) - 1)
    res = inverse_residual(get_chart("scale:2,3"), 0.5, (1.0, 1.0))
    assert res[0, 0] == pytest.approx(1.0 / math.sqrt(3.0) - 1.0, rel=1e-9)
    assert res[1, 1] == pytest.approx(1.0 / math.sqrt(2.0) - 1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# pullback


def test_transform_under_scaling():
    # x = 2y, so x1 d(x1)^0.5 becomes 2y1 * 2^0.5 d(y1)^0.5
    J = jacobian(get_chart("scale:2"), 0.5)
    A = parse_form("x1 d(x1,0.5)", J.chart.ctx_x)
    got = transform_form(A, J)
    want = parse_form("2.8284271247461903*y1 d(y1,0.5)", J.chart.ctx_y)
    assert print_form(got, J.chart.ctx_y) == print_form(want, J.chart.ctx_y)


def test_transform_whole_order_affine():
    J = jacobian(get_chart("affine:1,2;3,4"), 1.0)
    A = parse_form("d(x1,1)", J.chart.ctx_x)
    got = transform_form(A, J)
    # dx1 = dy1 + 2 dy2 under x1 = y1 + 2 y2
    want = parse_form("d(y1,1) + 2 d(y2,1)", J.chart.ctx_y)
    assert print_form(got, J.chart.ctx_y) == print_form(want, J.chart.ctx_y)


def test_affine_pullback_of_a_polynomial_form_is_the_classical_one():
    # x1 = y1 + 2 y2, x2 = 3 y1 + 4 y2: x1^2 dx1 + x2 dx2 pulls back to
    # (x1^2 + 3 x2) dy1 + (2 x1^2 + 4 x2) dy2, 32.79 and 50.98 at y = (0.7, 1.3)
    chart = get_chart("affine:1,2;3,4")
    A = parse_form("x1^2 d(x1,1) + x2 d(x2,1)", chart.ctx_x)
    y = (0.7, 1.3)
    got = transform_form(A, jacobian(chart, 1.0))
    want = parse_form(" + ".join(
        f"{term} d(y{i},1)" for i, terms in (
            (1, ("y1^2", "4*y1*y2", "4*y2^2", "9*y1", "12*y2")),
            (2, ("2*y1^2", "8*y1*y2", "8*y2^2", "12*y1", "16*y2")))
        for term in terms), chart.ctx_y)
    assert print_form(got, chart.ctx_y) == print_form(want, chart.ctx_y)
    values = [eval_expr(got.component(i, 2), chart.ctx_y, y) for i in range(2)]
    assert values == pytest.approx([32.79, 50.98], rel=1e-14)
    boxed = transform_form(A, jacobian(chart.black_box(), 1.0, y))
    values = [float(boxed.component(i, 2).coeffs[0]) for i in range(2)]
    assert values == pytest.approx([32.79, 50.98], rel=1e-8)


def test_fractional_power_of_a_multi_term_map_is_unsupported():
    chart = get_chart("affine:1,2;3,4")
    A = parse_form("x1^0.5 d(x1,1)", chart.ctx_x)
    with pytest.raises(UnsupportedError, match="fractional powers"):
        transform_form(A, jacobian(chart, 1.0))


def test_transform_rejects_other_grades_and_orders():
    J = jacobian(get_chart("scale:2,3"), 0.5)
    with pytest.raises(ValueError, match="expected a grade-1 form, got grade 2"):
        transform_form(parse_form("x1 d(x1,0.5) & d(x2,0.5)", J.chart.ctx_x), J)
    with pytest.raises(ValueError, match="form order 0.7 != matrix order 0.5"):
        transform_form(parse_form("x1 d(x1,0.7)", J.chart.ctx_x), J)


def test_transform_numeric_mode_contracts_at_the_point():
    r, th = 2.0, math.pi / 3.0
    J = jacobian(get_chart("polar"), 1.0, point=(r, th))
    A = parse_form("d(x1,1)", J.chart.ctx_x)
    got = transform_form(A, J)
    # dx1 = cos(theta) dr - r sin(theta) dtheta
    coeffs = sorted(float(c.coeffs[0]) for c in got.terms.values())
    want = sorted([math.cos(th), -r * math.sin(th)])
    assert coeffs == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# metric and line element


def test_polar_metric_is_diagonal():
    g = metric(get_chart("polar"), 1.0, point=(2.0, math.pi / 3.0)).as_array()
    assert np.max(np.abs(g - np.diag([1.0, 4.0]))) <= 1e-8


def test_metric_is_exactly_symmetric():
    g = metric(get_chart("polar"), 1.0, point=(1.7, 0.9)).as_array()
    assert np.array_equal(g, g.T)


def test_identity_metric_line_element():
    g = metric(get_chart("identity", n=2), 1.0, point=(1.0, 1.0))
    assert line_element(g, (3.0, 4.0)) == pytest.approx(5.0, rel=1e-12)


def test_scaling_metric_symbolic():
    g = metric(get_chart("scale:4"), 0.5)
    assert g.mode == "symbolic"
    assert exprs_close(g.entries[0][0], monomial(X1, 4.0, {}), tol=1e-12)


def test_line_element_rejects_negative_quadratic_form():
    bad = MetricMatrix(((-1.0,),), 0.5, get_chart("scale:2"), (1.0,))
    with pytest.raises(NegativeQuadraticFormError):
        line_element(bad, (1.0,))


def test_line_element_negativity_bound_is_absolute_1e_12():
    chart = get_chart("scale:2")
    assert line_element(MetricMatrix(((-1e-13,),), 0.5, chart, (1.0,)), (1.0,)) == 0.0
    with pytest.raises(NegativeQuadraticFormError):
        line_element(MetricMatrix(((-1e-11,),), 0.5, chart, (1.0,)), (1.0,))


def test_matrix_mode_and_m_follow_point_and_order():
    chart = get_chart("scale:2")
    sym = MetricMatrix(((Expr.constant(4.0, 1),),), 1.5, chart)
    assert (sym.mode, sym.m) == ("symbolic", 2)
    with pytest.raises(ValueError, match="symbolic matrix"):
        sym.as_array()
    num = sym.evaluate((1.0,))
    assert (num.mode, num.m, num.point, num.as_array().tolist()) == ("numeric", 2, (1.0,), [[4.0]])
    assert num.evaluate((2.0,)) is num
    assert MetricMatrix(((1.0,),), 3.0, chart, (1.0,)).m == 3


# ---------------------------------------------------------------------------
# serialization


def test_matrix_json_numeric():
    J = jacobian(get_chart("polar"), 1.0, point=(2.0, math.pi / 3.0))
    blob = J.to_json()
    assert blob["mode"] == "numeric"
    assert blob["nu"] == 1.0
    arr = np.array(blob["entries"], dtype=float)
    assert arr.shape == (2, 2)


def test_matrix_json_symbolic_entries_are_printable():
    J = jacobian(get_chart("scale:2,3"), 0.5)
    blob = J.to_json()
    assert blob["mode"] == "symbolic"
    assert isinstance(blob["entries"][0][0], str)


def test_format_matrix_digits():
    out = format_matrix([[1.0, 0.5641895835477563], [0.0, 2.0]], 10)
    assert out == "[[1,0.5641895835],[0,2]]"
