"""Closedness, integrability, and potential reconstruction for 1-forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracforms import analysis
from fracforms import (
    Context,
    Form,
    UnsupportedError,
    WedgeWord,
    DiffFactor,
    ExponentDomainError,
    Expr,
    classical_derivative,
    eval_expr,
    exprs_close,
    forms_close,
    frac_exterior_deriv,
    integrability_residual,
    is_closed,
    kernel_basis_1d,
    kernel_basis_dv,
    monomial,
    parse_expr,
    parse_form,
    rl_deriv,
    solve_exact,
)
from fracforms.analysis import ClosureReport, ExactnessResult
from fracforms.errors import VerificationError
from fracforms.oracle import expr_univariate, richardson
from fracforms.rl import rl_integ
from fracforms.specialfn import whole_ceil
from fracforms.symbolic import canonicalize, max_abs_coeff, shift_exponent
from fracforms.tolerances import EXP_TOL, RESIDUAL_TOL

X1 = Context.of(("x",))
XY = Context.of(("x1", "x2"))
XYZ = Context.of(("x1", "x2", "x3"))
X1234 = Context.of(("x1", "x2", "x3", "x4"))


def _components(alpha, ctx):
    return [alpha.component(i, ctx.n) for i in range(ctx.n)]


# ---------------------------------------------------------------------------
# kernel bases


def test_kernel_1d_below_one():
    basis = kernel_basis_1d(0.5, "x", X1)
    assert len(basis) == 1
    assert exprs_close(basis[0], monomial(X1, 1.0, {0: -0.5}))


def test_kernel_1d_whole_order():
    basis = kernel_basis_1d(1.0, "x", X1)
    assert len(basis) == 1
    assert exprs_close(basis[0], parse_expr("1", X1))


def test_kernel_1d_between_one_and_two():
    basis = kernel_basis_1d(1.5, "x", X1)
    assert [p for b in basis for p in b.exponents[:, 0].tolist()] == [-0.5, 0.5]


def test_kernel_dv_two_coordinates():
    basis = kernel_basis_dv(0.5, XY)
    assert len(basis) == 1
    want = monomial(XY, 1.0, {0: -0.5, 1: -0.5})
    assert exprs_close(basis[0], want)


def test_kernel_dv_count_scales_with_ceiling_order():
    # m choices per coordinate
    assert len(kernel_basis_dv(1.5, XY)) == 4
    assert len(kernel_basis_dv(2.7, XYZ)) == 27


def test_kernel_dv_single_coordinate_matches_1d():
    dv = kernel_basis_dv(1.5, X1)
    oned = kernel_basis_1d(1.5, "x", X1)
    assert len(dv) == len(oned)
    for a, b in zip(dv, oned):
        assert exprs_close(a, b)


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 1.5, 2.7])
@pytest.mark.parametrize("ctx", [X1, XY, XYZ], ids=["n1", "n2", "n3"])
def test_kernel_elements_are_annihilated(nu, ctx):
    for elem in kernel_basis_1d(nu, 0, ctx):
        assert len(rl_deriv(elem, 0, nu, ctx).coeffs) == 0
    for elem in kernel_basis_dv(nu, ctx):
        image = frac_exterior_deriv(elem, nu, ctx)
        assert image.is_zero


def test_kernel_needs_positive_order():
    with pytest.raises(ValueError):
        kernel_basis_1d(0.0, "x", X1)
    with pytest.raises(ValueError):
        kernel_basis_dv(-0.5, XY)


@pytest.mark.parametrize("nu", [math.inf, math.nan])
def test_kernel_basis_dv_rejects_an_order_that_is_not_finite(nu):
    with pytest.raises(ValueError, match=f"kernel order must be positive and finite, got {nu}"):
        kernel_basis_dv(nu, XY)


@pytest.mark.parametrize("nu", [math.inf, math.nan])
def test_kernel_basis_1d_rejects_an_order_that_is_not_finite(nu):
    with pytest.raises(ValueError, match=f"kernel order must be positive and finite, got {nu}"):
        kernel_basis_1d(nu, "x", X1)


# ---------------------------------------------------------------------------
# closedness


def one_form(texts, nu, ctx):
    pieces = [
        f"{t} d({name},{nu})"
        for t, name in zip(texts, ctx.names)
        if t is not None
    ]
    return parse_form(" + ".join(pieces), ctx)


def test_closed_classical_example():
    alpha = one_form(("2*x1*x2", "x1^2"), 1, XY)
    report = is_closed(alpha, 1.0, XY)
    assert report.closed
    assert report.witnesses == ()


def test_not_closed_classical_example():
    alpha = one_form(("x2", None), 1, XY)
    report = is_closed(alpha, 1.0, XY)
    assert not report.closed
    (i, j, expr) = report.witnesses[0]
    assert (i, j) == (0, 1)
    assert exprs_close(expr, parse_expr("-1", XY), tol=1e-12)


def test_closed_fractional_round_trip():
    f = parse_expr("x1^2*x2", XY)
    alpha = frac_exterior_deriv(f, 0.5, XY)
    assert is_closed(alpha, 0.5, XY).closed


def test_closed_against_lower_order_kernel():
    # coefficients inside the mu-kernel are wiped by every mu-derivative
    alpha = one_form(("x1^-0.5*x2^-0.5", "x1^-0.5*x2^-0.5"), 1, XY)
    report = is_closed(alpha, 0.5, XY)
    assert report.closed
    assert report.mu == 0.5


def test_not_closed_against_lower_order():
    alpha = one_form(("x1", "x2"), 1, XY)
    report = is_closed(alpha, 0.5, XY)
    assert not report.closed


def test_is_closed_requires_grade_one():
    with pytest.raises(ValueError):
        is_closed(Form.scalar(parse_expr("x1", XY)), 1.0, XY)


@pytest.mark.parametrize("mu", [0.5 - 5e-10, 0.5 + 5e-10])
def test_closed_at_an_order_within_tolerance_of_the_form_order(mu):
    # differentiated at 0.5 itself, so the mixed partials cancel exactly
    alpha = frac_exterior_deriv(parse_expr("x1^2*x2", XY), 0.5, XY)
    report = is_closed(alpha, mu, XY)
    assert report.closed
    assert report.mu == mu


def test_word_order_within_tolerance_of_the_form_order_is_the_form_order():
    ctx = Context.of(("x", "y"))
    x = parse_expr("x", ctx)
    alpha = parse_form("x d(x,0.5) + x d(y,0.5000000006)", ctx)
    assert alpha.component(1, ctx.n) == x
    # words that coincide once their orders are the form's are summed
    summed = parse_form("x d(x,0.5) + x d(y,0.5000000006) + 2*x d(y,0.5)", ctx)
    assert summed.component(1, ctx.n) == x * 3.0
    # the witness D_x^0.5 alpha_y - D_y^0.5 alpha_x sees alpha_y = x
    report = is_closed(alpha, 0.5, ctx)
    assert [w[:2] for w in report.witnesses] == [(0, 1)]
    assert exprs_close(report.witnesses[0][2],
                       rl_deriv(x, 0, 0.5, ctx) - rl_deriv(x, 1, 0.5, ctx))


@pytest.mark.parametrize("mu", [0.0, 5e-10, -0.5])
def test_is_closed_requires_positive_order(mu):
    alpha = one_form(("x2", None), 1, XY)
    with pytest.raises(ValueError, match=f"order must be positive, got {mu}"):
        is_closed(alpha, mu, XY)


# reference: the two-loop closedness test that d^mu alpha replaced, ported
# unchanged


def ref_is_closed(alpha, mu, ctx, tol=RESIDUAL_TOL):
    mu = float(mu)
    comps = _components(alpha, ctx)
    nu = alpha.total_order
    witnesses = []
    if abs(mu - nu) <= EXP_TOL:
        for i in range(ctx.n):
            for j in range(i + 1, ctx.n):
                res = rl_deriv(comps[j], i, mu, ctx) - rl_deriv(comps[i], j, mu, ctx)
                if max_abs_coeff(res) > tol:
                    witnesses.append((i, j, res))
    else:
        for i in range(ctx.n):
            for j in range(ctx.n):
                res = rl_deriv(comps[i], j, mu, ctx)
                if max_abs_coeff(res) > tol:
                    witnesses.append((i, j, res))
    return ClosureReport(not witnesses, tuple(witnesses), mu, nu)


@st.composite
def closure_cases(draw):
    """(alpha, mu, ctx): a grade-1 form of order nu and a test order mu."""
    ctx = draw(st.sampled_from((XY, XYZ)))
    nu = draw(st.sampled_from((0.3, 0.5, 1.0, 1.5)))
    mu = draw(st.one_of(
        st.just(nu),
        st.sampled_from((nu - 5e-10, nu + 5e-10)),
        st.sampled_from((0.3, 0.5, 0.7, 1.0, 1.5, 2.0)),
        st.floats(min_value=0.05, max_value=2.5),
    ))

    singular = draw(st.integers(0, 4)) == 0

    def exponent():
        kind = draw(st.integers(0, 9))
        if kind == 0 and singular:  # outside the operator domain
            return draw(st.sampled_from((-1.0, -1.5, -2.0)))
        if kind <= 4:  # whole and kernel powers, which derivatives annihilate
            return draw(st.sampled_from((0.0, 1.0, 2.0, nu - 1.0)))
        return draw(st.floats(min_value=-0.95, max_value=2.95))

    def expr():
        out = Expr.zero(ctx.n)
        for _ in range(draw(st.integers(1, 2))):
            c = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.01, 5.0))
            out = out + monomial(ctx, c, {k: exponent() for k in range(ctx.n)})
        return out

    if draw(st.booleans()):  # d^nu f is closed at mu = nu
        f = expr()
        try:
            return frac_exterior_deriv(f, nu, ctx), mu, ctx
        except ExponentDomainError:  # f is outside the domain: draw any form
            pass
    terms = {WedgeWord((DiffFactor(i, nu),)): expr()
             for i in range(ctx.n) if draw(st.integers(0, 3))}  # some components zero
    return Form(1, nu, terms), mu, ctx


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@given(closure_cases())
@settings(max_examples=300, deadline=None)
def test_is_closed_matches_two_loop_reference(case):
    alpha, mu, ctx = case
    nu = alpha.total_order
    # a mu within EXP_TOL of nu is now differentiated at order nu itself
    near = mu != nu and abs(mu - nu) <= EXP_TOL
    want = outcome(ref_is_closed, alpha, nu if near else mu, ctx)
    got = outcome(is_closed, alpha, mu, ctx)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.closed, got.mu, got.nu) == (want.closed, mu, nu)
    assert [w[:2] for w in got.witnesses] == [w[:2] for w in want.witnesses]
    for (_, _, a), (_, _, b) in zip(got.witnesses, want.witnesses):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert a.exponents.tobytes() == b.exponents.tobytes()


# ---------------------------------------------------------------------------
# integrability residual

names_to_idx = {"x1": 0, "x2": 1, "x3": 2}


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=-9.0, max_value=9.0).filter(lambda c: abs(c) > 1e-2),
    st.floats(min_value=-9.0, max_value=9.0).filter(lambda c: abs(c) > 1e-2),
)
@settings(max_examples=100, deadline=None)
def test_whole_order_residual_is_the_curl(p1, p2, r1, r2, c1, c2):
    a1 = monomial(XY, c1, {0: float(p1), 1: float(p2)})
    a2 = monomial(XY, c2, {0: float(r1), 1: float(r2)})
    w1 = WedgeWord((DiffFactor(0, 1.0),))
    w2 = WedgeWord((DiffFactor(1, 1.0),))
    alpha = Form(1, 1.0, {w1: a1, w2: a2})
    got = integrability_residual(alpha, 0, 1, XY)
    want = classical_derivative(a2, 0) - classical_derivative(a1, 1)
    assert exprs_close(got, want, tol=1e-10)


def test_residual_vanishes_on_exact_fractional_forms():
    f = parse_expr("x1^2*x2 + x2^2", XY)
    alpha = frac_exterior_deriv(f, 0.5, XY)
    for i, j in ((0, 1), (1, 0)):
        assert len(integrability_residual(alpha, i, j, XY).coeffs) == 0


def test_residual_detects_non_integrable_fractional_form():
    alpha = one_form(("x2", None), 0.5, XY)
    got = integrability_residual(alpha, 0, 1, XY)
    # -1/gamma(1.5)^2 * x2^0.5
    want = monomial(XY, -1.2732395447351627, {1: 0.5})
    assert exprs_close(got, want, tol=1e-10)


# ---------------------------------------------------------------------------
# exactness


def test_exact_classical_case():
    alpha = one_form(("2*x1*x2", "x1^2"), 1, XY)
    result = solve_exact(alpha, 1.0, XY)
    assert result.status == "exact"
    assert result.is_exact
    assert exprs_close(result.f, parse_expr("x1^2*x2", XY), tol=1e-10)
    assert forms_close(frac_exterior_deriv(result.f, 1.0, XY), alpha, tol=1e-9)


def test_not_integrable_classical_case():
    alpha = one_form(("x2", None), 1, XY)
    result = solve_exact(alpha, 1.0, XY)
    assert result.status == "not_integrable"
    assert not result.is_exact
    assert (result.i, result.j) == (0, 1)
    assert exprs_close(result.residual, parse_expr("-1", XY), tol=1e-12)


def test_exact_result_carries_kernel_basis():
    alpha = one_form(("2*x1*x2", "x1^2"), 1, XY)
    result = solve_exact(alpha, 1.0, XY)
    assert len(result.kernel) == len(kernel_basis_dv(1.0, XY))
    for a, b in zip(result.kernel, kernel_basis_dv(1.0, XY)):
        assert exprs_close(a, b)


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 1.0])
def test_fractional_round_trip(nu):
    f = parse_expr("x1^2*x2 + 3*x1", XY)
    alpha = frac_exterior_deriv(f, nu, XY)
    result = solve_exact(alpha, nu, XY)
    assert result.status == "exact"
    assert exprs_close(result.f, f, tol=1e-9)
    assert forms_close(frac_exterior_deriv(result.f, nu, XY), alpha, tol=1e-9)


coeff_st = st.floats(min_value=-5.0, max_value=5.0).filter(lambda c: abs(c) > 1e-2)


@given(coeff_st, coeff_st, coeff_st,
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_random_polynomial_potentials_are_recovered(c1, c2, c3, p1, p2):
    f = (
        monomial(XY, c1, {0: float(p1), 1: float(p2)})
        + monomial(XY, c2, {0: 1.0})
        + monomial(XY, c3, {1: 2.0})
    )
    alpha = frac_exterior_deriv(f, 0.5, XY)
    result = solve_exact(alpha, 0.5, XY)
    assert result.status == "exact"
    assert forms_close(frac_exterior_deriv(result.f, 0.5, XY), alpha, tol=1e-9)


def test_three_coordinate_recursion():
    f = parse_expr("x1*x2*x3 + x2^2", XYZ)
    alpha = frac_exterior_deriv(f, 0.5, XYZ)
    result = solve_exact(alpha, 0.5, XYZ)
    assert result.status == "exact"
    assert exprs_close(result.f, f, tol=1e-9)


def test_fractional_not_integrable():
    alpha = one_form(("x2", None), 0.5, XY)
    result = solve_exact(alpha, 0.5, XY)
    assert result.status == "not_integrable"
    assert (result.i, result.j) == (0, 1)
    # the closure witness D_1^0.5 alpha_2 - D_2^0.5 alpha_1 = -x2^0.5 / gamma(1.5)
    assert exprs_close(
        result.residual, monomial(XY, -1.1283791670955126, {1: 0.5}), tol=1e-10
    )


def test_order_within_tolerance_of_the_form_order_is_exact():
    alpha = frac_exterior_deriv(parse_expr("x1^2*x2", XY), 0.5, XY)
    result = solve_exact(alpha, 0.5 + 5e-10, XY)
    assert result.status == "exact"
    assert exprs_close(result.f, parse_expr("x1^2*x2", XY), tol=1e-9)
    # the kernel is the one at the form's own order
    assert [k.exponents.tolist() for k in result.kernel] == [[[-0.5, -0.5]]]


def test_domain_failure_is_unsupported():
    alpha = frac_exterior_deriv(parse_expr("3", X1), 1.4, X1)  # 3 x^-1.4 / gamma(-0.4)
    result = solve_exact(alpha, 1.4, X1)
    assert result.status == "unsupported"
    assert "-1.4 on x" in result.reason


@st.composite
def potentials(draw):
    """(f, nu, ctx): a 1-3 term potential in the domain over 1-4 coordinates,
    and an order 0 < nu <= 2.5."""
    ctx = draw(st.sampled_from((X1, XY, XYZ, X1234)))
    nu = draw(st.one_of(st.sampled_from((0.5, 1.0, 1.5, 2.0, 2.5)),
                        st.floats(min_value=0.05, max_value=2.5)))

    def exponent():
        return draw(st.one_of(st.sampled_from((0.0, 1.0, 2.0, 3.0, nu, nu - 1.0)),
                              st.floats(min_value=0.0, max_value=4.0)))

    f = Expr.zero(ctx.n)
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.01, 5.0))
        f = f + monomial(ctx, c, {k: exponent() for k in range(ctx.n)})
    return f, nu, ctx


def test_round_trip_at_every_order():
    seen = {"draws": 0, "unsupported": 0}

    @given(potentials())
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    def round_trip(case):
        f, nu, ctx = case
        alpha = frac_exterior_deriv(f, nu, ctx)
        result = solve_exact(alpha, nu, ctx)
        seen["draws"] += 1
        if result.status == "unsupported":  # D_c^-nu met an exponent <= -1
            assert "outside the operator domain" in result.reason
            seen["unsupported"] += 1
            return
        assert result.status == "exact"
        assert forms_close(frac_exterior_deriv(result.f, nu, ctx), alpha, 1e-9)
        # f is recovered up to the kernel of d^nu
        diff = frac_exterior_deriv(result.f - f, nu, ctx)
        assert all(max_abs_coeff(c) <= 1e-9 for c in diff.terms.values())

    round_trip()
    assert seen["unsupported"] < seen["draws"] / 2, seen


def test_order_mismatch_rejected():
    alpha = one_form(("x2", None), 0.5, XY)
    with pytest.raises(ValueError):
        solve_exact(alpha, 0.75, XY)


# reference: solve_exact as it was before its integrability check and its
# reconstruction shared partials, one integrability_residual per ordered pair,
# ported unchanged


def ref_integrability_residual(alpha, i, j, ctx):
    comps = _components(alpha, ctx)
    nu = alpha.total_order
    m = whole_ceil(nu)
    inner = comps[j] - rl_deriv(rl_integ(comps[i], i, nu, ctx), j, nu, ctx)
    shifted = shift_exponent(inner, i, -(nu - m))
    return classical_derivative(shifted, i, m)


def ref_reconstruct(comps, coords, nu, ctx):
    i0 = coords[0]
    f0 = rl_integ(comps[i0], i0, nu, ctx)
    if len(coords) == 1:
        return f0
    beta = list(comps)
    for j in coords[1:]:
        num = comps[j] - rl_deriv(f0, j, nu, ctx)
        shifted = canonicalize(shift_exponent(num, i0, -(nu - 1.0)))
        free = np.abs(shifted.exponents[:, i0]) <= EXP_TOL
        if (~free & (np.abs(shifted.coeffs) > RESIDUAL_TOL)).any():
            return None
        beta[j] = shifted.take(free)
    c0 = ref_reconstruct(beta, coords[1:], nu, ctx)
    if c0 is None:
        return None
    return f0 + c0 * monomial(ctx, 1.0, {i0: nu - 1.0})


def ref_solve_exact(alpha, nu, ctx):
    nu = float(nu)
    if any(ctx.initial_points):
        return ExactnessResult("unsupported",
                               reason="initial points must all be at the origin")
    if nu > 1.0 + EXP_TOL:
        return ExactnessResult("unsupported",
                               reason=f"reconstruction is limited to 0 < nu <= 1, got {nu}")
    if nu <= EXP_TOL:
        return ExactnessResult("unsupported", reason="order must be positive")
    if abs(alpha.total_order - nu) > EXP_TOL:
        raise ValueError(
            f"form order {alpha.total_order} does not match requested order {nu}")
    comps = _components(alpha, ctx)

    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            res = ref_integrability_residual(alpha, i, j, ctx)
            if max_abs_coeff(res) > RESIDUAL_TOL:
                return ExactnessResult("not_integrable", residual=res, i=i, j=j)

    f = ref_reconstruct(comps, list(range(ctx.n)), nu, ctx)
    if f is None:
        raise VerificationError(
            "integrability residuals vanish but reconstruction failed; "
            "this signals an internal inconsistency")
    f = canonicalize(f)
    round_trip = frac_exterior_deriv(f, nu, ctx)
    if not forms_close(round_trip, alpha, 1e-9):
        raise VerificationError(
            "reconstructed potential failed the d^nu round-trip check")
    return ExactnessResult("exact", f=f, kernel=tuple(kernel_basis_dv(nu, ctx)))


@st.composite
def exactness_cases(draw, kinds=("exact", "perturbed", "any")):
    """(alpha, nu, ctx): a grade-1 form over 1-4 coordinates whose order is
    within EXP_TOL of nu, 0 < nu <= 1; exact, exact plus one term, or any."""
    ctx = draw(st.sampled_from((X1, XY, XYZ, X1234)))
    order = draw(st.one_of(st.sampled_from((0.25, 0.5, 1.0)),
                           st.floats(min_value=0.05, max_value=1.0)))
    nu = draw(st.sampled_from((order, order - 5e-10, order + 5e-10)))
    singular = draw(st.integers(0, 4)) == 0

    def exponent():
        kind = draw(st.integers(0, 9))
        if kind == 0 and singular:  # outside the operator domain
            return draw(st.sampled_from((-1.0, -1.5)))
        if kind <= 4:  # whole powers, and the kernel power the derivative annihilates
            return draw(st.sampled_from((0.0, 1.0, 2.0, order - 1.0)))
        return draw(st.floats(min_value=-0.9, max_value=2.9))

    def expr(terms):
        out = Expr.zero(ctx.n)
        for _ in range(terms):
            c = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.01, 5.0))
            out = out + monomial(ctx, c, {k: exponent() for k in range(ctx.n)})
        return out

    def one_term_form():
        k = draw(st.integers(0, ctx.n - 1))
        return Form(1, order, {WedgeWord((DiffFactor(k, order),)): expr(1)})

    kind = draw(st.sampled_from(kinds))
    if kind != "any":
        try:
            alpha = frac_exterior_deriv(expr(draw(st.integers(1, 3))), order, ctx)
        except ExponentDomainError:  # the potential is outside the domain
            assume("any" in kinds)
            kind = "any"
    if kind == "any":
        alpha = Form(1, order, {WedgeWord((DiffFactor(i, order),)): expr(draw(st.integers(1, 2)))
                                for i in range(ctx.n) if draw(st.integers(0, 3))})
    elif kind == "perturbed":
        alpha = alpha + one_term_form()
    return alpha, nu, ctx


@given(exactness_cases())
@settings(max_examples=200, deadline=None)
def test_solve_exact_matches_per_pair_reference(case):
    """The reference's verdict, with the potential held to the d^nu round trip
    and the witness to is_closed.  Where the reference raised, the verdict is
    free: its VerificationErrors (orders off the form's within EXP_TOL) and
    some of its ExponentDomainErrors (a pair partial out of the domain while
    the homotopy stays in it) are now exact."""
    alpha, nu, ctx = case
    order = alpha.total_order
    want = outcome(ref_solve_exact, alpha, nu, ctx)
    got = solve_exact(alpha, nu, ctx)
    closure = outcome(is_closed, alpha, order, ctx)
    if got.status == "exact":
        assert want in (VerificationError, ExponentDomainError) or want.status == "exact"
        assert forms_close(frac_exterior_deriv(got.f, order, ctx), alpha, 1e-9)
        if not isinstance(want, type) and nu == order:
            diff = frac_exterior_deriv(got.f - want.f, nu, ctx)
            assert all(max_abs_coeff(c) <= 1e-9 for c in diff.terms.values())
    elif got.status == "not_integrable":
        assert want is ExponentDomainError or want.status == "not_integrable"
        if want is not ExponentDomainError:
            assert (got.i, got.j) == (want.i, want.j)
            # the public residual of the pair stays the paper's obstruction, bit for bit
            a = integrability_residual(alpha, got.i, got.j, ctx)
            b = ref_integrability_residual(alpha, got.i, got.j, ctx)
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert a.exponents.tobytes() == b.exponents.tobytes()
        if closure is not ExponentDomainError:
            i, j, res = closure.witnesses[0]
            assert (got.i, got.j) == (i, j)
            assert exprs_close(got.residual, res, tol=1e-10)
    else:
        assert got.status == "unsupported"
        assert want is ExponentDomainError or (
            want.status == "not_integrable" and closure is ExponentDomainError)


@given(exactness_cases(kinds=("exact", "perturbed")))
@settings(max_examples=200, deadline=None)
def test_integrability_residuals_vanish_exactly_on_closed_forms(case):
    alpha, _, ctx = case
    try:
        closed = is_closed(alpha, alpha.total_order, ctx).closed
        residuals = [integrability_residual(alpha, i, j, ctx)
                     for i in range(ctx.n) for j in range(ctx.n) if i != j]
    except ExponentDomainError:  # outside the operator domain
        assume(False)
    assert all(max_abs_coeff(r) <= RESIDUAL_TOL for r in residuals) == closed


def arrays(e):
    return e.coeffs.tobytes(), e.exponents.tobytes()


@given(exactness_cases(kinds=("exact", "perturbed")), st.data())
@settings(max_examples=100, deadline=None)
def test_shifted_initial_points_give_the_origin_arrays(case, data):
    """Every operator along x_i has lower terminal a_i and every Expr is a sum
    of powers of x_i - a_i, so the analysis is the same arrays at any initial
    points: potential, closure witnesses, kernel basis and obstruction."""
    alpha, nu, origin = case
    order = alpha.total_order
    a = data.draw(st.tuples(*[st.floats(-2.0, 2.0)] * origin.n))
    shifted = Context.of(origin.names, a)

    def snapshot(ctx):
        exact = solve_exact(alpha, nu, ctx)
        closure = outcome(is_closed, alpha, order, ctx)
        if not isinstance(closure, type):
            closure = closure.closed, [(i, j, arrays(r)) for i, j, r in closure.witnesses]
        residuals = [outcome(integrability_residual, alpha, i, j, ctx)
                     for i in range(ctx.n) for j in range(ctx.n) if i != j]
        return (exact.status, None if exact.f is None else arrays(exact.f), closure,
                [arrays(k) for k in kernel_basis_dv(order, ctx)],
                [r if isinstance(r, type) else arrays(r) for r in residuals])

    assert snapshot(shifted) == snapshot(origin)


@pytest.mark.parametrize("a", [(1.0, -0.5), (-1.5, 0.7), (0.25, -2.0)])
def test_shifted_potential_matches_the_oracle_from_each_initial_point(a):
    """d^nu of the potential found at initial points a, against GL sums that
    start at a_c: code that reads a_c, where the symbolic path never does.
    Every exponent on the active coordinate is 0 or above, so the integrand
    has no negative power at the lower terminal; such a power leads the GL
    error with a term that Richardson's exponents 1, 2, 3, ... do not remove."""
    ctx = Context.of(("x1", "x2"), a)
    nu = 0.5
    alpha = frac_exterior_deriv(parse_expr("1.3*x1^1.25*x2^0.75 + 0.4*x2^2.5", ctx), nu, ctx)
    result = solve_exact(alpha, nu, ctx)
    assert result.status == "exact"
    dv = frac_exterior_deriv(result.f, nu, ctx)
    pt = (a[0] + 1.3, a[1] + 1.6)
    for c in range(ctx.n):
        v = eval_expr(dv.component(c, ctx.n), ctx, pt)
        r = richardson(expr_univariate(result.f, ctx, c, pt), nu, pt[c], a[c], h0=1e-4, levels=4)
        assert r.converged
        assert abs(r.value - v) <= 10 * r.error_estimate + 1e-13 * (1 + abs(v))


def test_exactness_leftover_threshold_is_absolute():
    """A leftover word of 1e-9 is not exact and one of 1e-11 is: the absolute
    RESIDUAL_TOL of 1e-10, on either side."""
    alpha = parse_form("1e-9*x2 d(x1,1)", XY)
    result = solve_exact(alpha, 1.0, XY)
    assert result.status == "not_integrable"
    assert (result.i, result.j) == (0, 1)
    assert arrays(result.residual) == arrays(parse_expr("-1e-9", XY))
    assert solve_exact(parse_form("1e-11*x2 d(x1,1)", XY), 1.0, XY).status == "exact"


def test_closedness_residual_threshold_is_absolute():
    """A d^1 word of 1e-10 is closed and one of 2e-10 is not: the absolute
    RESIDUAL_TOL of 1e-10, on either side."""
    assert is_closed(parse_form("1e-10*x2 d(x1,1)", XY), 1.0, XY).closed
    report = is_closed(parse_form("2e-10*x2 d(x1,1)", XY), 1.0, XY)
    assert not report.closed
    assert [w[:2] for w in report.witnesses] == [(0, 1)]


@pytest.mark.parametrize("nu", [0.0, 5e-10, -0.5])
def test_solve_exact_of_a_non_positive_order_is_unsupported(nu):
    result = solve_exact(parse_form("x2 d(x1,0.5)", XY), nu, XY)
    assert result.status == "unsupported"
    assert result.reason == "order must be positive"


def test_solve_exact_integrates_each_component_once(monkeypatch):
    f = parse_expr("x1^2*x2*x3 + x2^1.5*x4 + x1*x3^0.5*x4^2 + x4^3", X1234)
    alpha = frac_exterior_deriv(f, 0.5, X1234)
    assert len(alpha.terms) == 4
    calls = []

    def counted(*args):
        calls.append(args)
        return rl_integ(*args)

    monkeypatch.setattr(analysis, "rl_integ", counted)
    assert solve_exact(alpha, 0.5, X1234).status == "exact"
    assert len(calls) <= 4  # at most one per coordinate
