"""Fractional differintegrals on power products.

The closed-form operator is validated two independent ways: against exact
whole-order calculus, and against the Grunwald-Letnikov quadrature oracle
(which never sees the symbolic code path).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracforms import (
    BoundarySingularityError,
    Context,
    ExponentDomainError,
    classical_derivative,
    compose_residual,
    eval_expr,
    exprs_close,
    expr_univariate,
    gl_deriv,
    monomial,
    parse_expr,
    print_expr,
    product_rule_series,
    rl_deriv,
    rl_integ,
)
from fracforms import rl
from fracforms.symbolic import restrict_at_initial

X = Context.of(("x",))
XY = Context.of(("x", "y"))


# ---------------------------------------------------------------------------
# reference values


def test_half_derivative_of_one():
    got = rl_deriv(parse_expr("1", X), "x", 0.5, X)
    # 1/gamma(0.5) = 1/sqrt(pi)
    want = monomial(X, 0.5641895835477563, {0: -0.5})
    assert exprs_close(got, want, tol=1e-12)


def test_half_derivative_of_x():
    got = rl_deriv(parse_expr("x", X), "x", 0.5, X)
    # gamma(2)/gamma(1.5) = 2/sqrt(pi)
    want = monomial(X, 1.1283791670955126, {0: 0.5})
    assert exprs_close(got, want, tol=1e-12)


def test_half_integral_of_x():
    got = rl_integ(parse_expr("x", X), "x", 0.5, X)
    # gamma(2)/gamma(2.5)
    want = monomial(X, 0.7522527780636751, {0: 1.5})
    assert exprs_close(got, want, tol=1e-12)


def test_annihilation_of_x_to_minus_half():
    got = rl_deriv(parse_expr("x^-0.5", X), "x", 0.5, X)
    assert len(got.coeffs) == 0


def test_annihilation_family():
    # exponent q - k for whole k >= 1 is wiped out by order q
    for k in (1, 2, 3):
        e = monomial(X, 2.0, {0: 1.7 - k})
        if 1.7 - k <= -1.0:
            continue
        assert len(rl_deriv(e, "x", 1.7, X).coeffs) == 0


def test_order_zero_is_identity():
    e = parse_expr("3*x^2.5 + x", X)
    assert rl_deriv(e, "x", 0.0, X) == e


def test_domain_boundary_rejected():
    with pytest.raises(ExponentDomainError):
        rl_deriv(parse_expr("x^-2", X), "x", 0.5, X)
    with pytest.raises(ExponentDomainError):
        rl_deriv(parse_expr("x^-1", X), "x", 0.5, X)


def test_exponent_just_inside_domain_accepted():
    e = monomial(X, 1.0, {0: -0.999})
    assert len(rl_deriv(e, "x", 0.5, X).coeffs) == 1


def test_integral_order_must_be_positive():
    with pytest.raises(ValueError):
        rl_integ(parse_expr("x", X), "x", -0.5, X)


def test_negative_order_derivative_integrates():
    e = parse_expr("x^2", X)
    assert rl_deriv(e, "x", -0.5, X) == rl_integ(e, "x", 0.5, X)


def test_partial_leaves_other_coordinates_alone():
    e = parse_expr("x^2*y", XY)
    got = rl_deriv(e, "y", 0.5, XY)
    want = monomial(XY, 1.1283791670955126, {0: 2.0, 1: 0.5})
    assert exprs_close(got, want, tol=1e-12)


# ---------------------------------------------------------------------------
# operator laws

coeffs = st.floats(min_value=-10.0, max_value=10.0).filter(lambda c: abs(c) > 1e-3)
safe_exps = st.floats(min_value=2.1, max_value=6.0)
orders = st.floats(min_value=0.05, max_value=1.95)


@st.composite
def safe_exprs(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    terms = [monomial(X, draw(coeffs), {0: draw(safe_exps)}) for _ in range(k)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


@given(safe_exprs(), safe_exprs(), orders)
@settings(max_examples=200, deadline=None)
def test_linearity(e1, e2, q):
    lhs = rl_deriv(e1 + e2, "x", q, X)
    rhs = rl_deriv(e1, "x", q, X) + rl_deriv(e2, "x", q, X)
    assert exprs_close(lhs, rhs, tol=1e-10)


@given(safe_exprs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=200, deadline=None)
def test_whole_orders_match_classical(e, n):
    assert exprs_close(rl_deriv(e, "x", float(n), X), classical_derivative(e, 0, n), tol=1e-10)


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=-0.5, max_value=3.0), st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_whole_orders_are_bit_identical_to_classical(c, p, p_y, n):
    e = monomial(XY, c, {"x": p, "y": p_y})
    got, want = rl_deriv(e, "x", float(n), XY), classical_derivative(e, 0, n)
    assert [v.hex() for v in got.coeffs.tolist()] == [v.hex() for v in want.coeffs.tolist()]
    assert got.exponents.tolist() == want.exponents.tolist()


@given(safe_exprs(), st.integers(min_value=1, max_value=2), orders)
@settings(max_examples=200, deadline=None)
def test_classical_after_fractional_composes(e, n, q):
    # d^n/dx^n ( D^q e ) = D^(n+q) e
    lhs = classical_derivative(rl_deriv(e, "x", q, X), 0, n)
    rhs = rl_deriv(e, "x", n + q, X)
    assert exprs_close(lhs, rhs, tol=1e-10)


@given(safe_exprs(), orders)
@settings(max_examples=200, deadline=None)
def test_derivative_inverts_integral(e, q):
    assert exprs_close(rl_deriv(rl_integ(e, "x", q, X), "x", q, X), e, tol=1e-10)


@given(safe_exprs(), orders, orders)
@settings(max_examples=200, deadline=None)
def test_integral_semigroup(e, p, q):
    lhs = rl_integ(rl_integ(e, "x", p, X), "x", q, X)
    rhs = rl_integ(e, "x", p + q, X)
    assert exprs_close(lhs, rhs, tol=1e-10)


# ---------------------------------------------------------------------------
# composition residual


def test_compose_residual_smooth_case_is_zero():
    e = parse_expr("x^2 + 3*x^4", X)
    assert len(compose_residual(e, "x", 0.7, 0.5, X).coeffs) == 0


def test_compose_residual_constant_is_zero():
    assert len(compose_residual(parse_expr("1", X), "x", 0.5, 0.5, X).coeffs) == 0


def test_compose_residual_annihilated_case_still_zero():
    # naive composition loses x^-0.5 entirely; the boundary term restores it
    e = parse_expr("x^-0.5", X)
    assert len(compose_residual(e, "x", 0.5, 0.5, X).coeffs) == 0


def test_naive_composition_fails_where_residual_explains():
    # D^(-0.5) D^(0.5) x^(-0.5) = 0, which is not the original function
    e = parse_expr("x^-0.5", X)
    back = rl_integ(rl_deriv(e, "x", 0.5, X), "x", 0.5, X)
    assert len(back.coeffs) == 0
    assert not exprs_close(back, e)


@given(safe_exprs(), orders, orders)
@settings(max_examples=100, deadline=None)
def test_compose_residual_vanishes_on_smooth_inputs(e, p, q):
    assert exprs_close(compose_residual(e, "x", p, q, X), e.zero(e.n), tol=1e-10)


def test_compose_residual_rejects_negative_orders():
    with pytest.raises(ValueError):
        compose_residual(parse_expr("x", X), "x", -0.1, 0.5, X)


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_orders_that_are_not_finite_are_rejected(q):
    # the power rule is where every differintegral order enters
    x2 = parse_expr("x^2", X)
    with pytest.raises(ValueError, match=f"differintegral order must be finite, got {q}"):
        rl_deriv(x2, "x", q, X)
    with pytest.raises(ValueError, match=f"differintegral order must be finite, got {q}"):
        rl.power_rule_map(x2, 0, q, X, (1.5,))
    with pytest.raises(ValueError, match=f"integral order must be positive and finite, got {q}"):
        rl_integ(x2, "x", q, X)


# ---------------------------------------------------------------------------
# boundary restriction helper


def test_restrict_at_initial_keeps_constants():
    e = parse_expr("3 + x^2", X)
    assert restrict_at_initial(e, 0, X) == parse_expr("3", X)


def test_restrict_at_initial_singular_exponent():
    with pytest.raises(BoundarySingularityError):
        restrict_at_initial(parse_expr("x^-0.5", X), 0, X)


# ---------------------------------------------------------------------------
# product rule series


def test_product_series_matches_direct_derivative():
    f = parse_expr("x^2", X)
    g = parse_expr("x^3", X)
    got = product_rule_series(f, g, "x", 0.5, X)
    want = rl_deriv(parse_expr("x^5", X), "x", 0.5, X)
    assert not got.truncated
    assert exprs_close(got.expr, want, tol=1e-10)


def test_product_series_with_constant_factor():
    f = parse_expr("x^2 + x", X)
    got = product_rule_series(f, parse_expr("1", X), "x", 0.5, X)
    assert exprs_close(got.expr, rl_deriv(f, "x", 0.5, X), tol=1e-12)


def test_product_series_trivial_f():
    got = product_rule_series(parse_expr("1", X), parse_expr("x", X), "x", 0.5, X)
    want = rl_deriv(parse_expr("x", X), "x", 0.5, X)
    assert exprs_close(got.expr, want, tol=1e-12)


def test_product_series_flags_truncation():
    f = parse_expr("x^2", X)
    g = parse_expr("x^3", X)
    cut = product_rule_series(f, g, "x", 0.5, X, K=1)
    assert cut.truncated
    assert cut.tail_estimate > 1e-9


@pytest.mark.parametrize("tail, truncated", [(0.9e-9, False), (1.1e-9, True)])
def test_product_series_truncation_threshold_is_absolute_1e_9(tail, truncated):
    # with K = 1 the dropped term of c*x^2 times x^3 is binom(0.5, 2) * 6x *
    # D^-1.5 c*x^2, of magnitude 1.5 c / gamma(4.5) at the probe x = 1
    c = tail * math.gamma(4.5) / 1.5
    cut = product_rule_series(monomial(X, c, {0: 2.0}), parse_expr("x^3", X), "x", 0.5, X, K=1)
    assert cut.tail_estimate == pytest.approx(tail, rel=1e-12)
    assert cut.truncated is truncated


@pytest.mark.parametrize("error", [AssertionError, TypeError])
def test_product_series_tail_probe_lets_programming_errors_through(monkeypatch, error):
    def broken(*args):
        raise error("broken evaluator")

    monkeypatch.setattr(rl, "eval_expr", broken)
    with pytest.raises(error):
        product_rule_series(parse_expr("x^2", X), parse_expr("x^3", X), "x", 0.5, X, K=1)


def test_product_series_overflowing_tail_probe_is_infinite(monkeypatch):
    def overflow(*args):
        raise OverflowError("intermediate overflow in fsum")

    monkeypatch.setattr(rl, "eval_expr", overflow)
    cut = product_rule_series(parse_expr("x^2", X), parse_expr("x^3", X), "x", 0.5, X, K=1)
    assert cut.truncated and cut.tail_estimate == math.inf


def test_product_series_non_polynomial_needs_bound():
    f = parse_expr("x^2", X)
    with pytest.raises(ValueError):
        product_rule_series(f, parse_expr("x^0.5", X), "x", 0.5, X)


def test_product_series_non_polynomial_converges_with_bound():
    f = parse_expr("x^2", X)
    g = parse_expr("x^0.5", X)
    got = product_rule_series(f, g, "x", 0.5, X, K=25)
    want = rl_deriv(parse_expr("x^2.5", X), "x", 0.5, X)
    probe = (1.0,)
    # accuracy here is bounded by the canonical coefficient drop threshold,
    # which zeroes the deeply-integrated factors of very late terms
    assert eval_expr(got.expr, X, probe) == pytest.approx(
        eval_expr(want, X, probe), rel=1e-4
    )


# ---------------------------------------------------------------------------
# agreement with the quadrature oracle


@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.1, max_value=1.9),
    st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=20, deadline=None)
def test_symbolic_matches_gl_oracle(p, q, x):
    e = monomial(X, 1.0, {0: p})
    sym = eval_expr(rl_deriv(e, "x", q, X), X, (x,))
    num = gl_deriv(expr_univariate(e, X, "x", (x,)), q, x, 0.0, h=1e-4)
    assert num == pytest.approx(sym, rel=1e-3)
