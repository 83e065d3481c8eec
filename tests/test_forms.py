"""Wedge algebra on fractional differentials and the graded derivative."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracforms import (
    Context,
    DiffFactor,
    Form,
    WedgeWord,
    canonical_word,
    classical_derivative,
    exprs_close,
    form_from_json,
    form_to_json,
    forms_close,
    frac_exterior_deriv,
    monomial,
    parse_expr,
    parse_form,
    print_form,
    wedge,
)

XY = Context.of(("x1", "x2"))
XYZ = Context.of(("x1", "x2", "x3"))

# words carry integer coordinate indices; names exist only in text and JSON
IDX = {"x": 0, "x1": 0, "x2": 1, "x3": 2}


def d(coord, order):
    return DiffFactor(IDX[coord], order)


# ---------------------------------------------------------------------------
# canonical words


def test_word_sorts_and_counts_transpositions():
    sign, w = canonical_word([d("x2", 0.5), d("x1", 0.5)])
    assert sign == -1
    assert w == WedgeWord((d("x1", 0.5), d("x2", 0.5)))


def test_word_with_duplicate_factor_vanishes():
    sign, w = canonical_word([d("x1", 0.5), d("x1", 0.5)])
    assert sign == 0
    assert w is None


def test_same_coordinate_distinct_orders_survive():
    sign, w = canonical_word([d("x1", 0.3), d("x1", 0.7)])
    assert sign == 1
    assert w == WedgeWord((d("x1", 0.3), d("x1", 0.7)))


def test_duplicate_detection_uses_order_tolerance():
    sign, w = canonical_word([d("x1", 0.5), d("x1", 0.5 + 1e-11)])
    assert sign == 0 and w is None


def test_order_zero_factors_drop_out():
    sign, w = canonical_word([d("x1", 0.0), d("x2", 0.5)])
    assert sign == 1
    assert w == WedgeWord((d("x2", 0.5),))


def test_three_factor_parity():
    sign, w = canonical_word([d("x3", 1.0), d("x2", 1.0), d("x1", 1.0)])
    # reversing three factors is an odd permutation
    assert sign == -1
    assert [f.coord for f in w.factors] == [0, 1, 2]


def test_diff_factor_rejects_negative_order():
    with pytest.raises(ValueError):
        DiffFactor("x1", -0.5)


@pytest.mark.parametrize("order", [float("inf"), float("nan")])
def test_orders_that_are_not_finite_are_rejected(order):
    with pytest.raises(ValueError, match=f"differential order must be >= 0 and finite, got {order}"):
        DiffFactor(0, order)
    with pytest.raises(ValueError, match=f"exterior derivative order must be >= 0 and finite, "
                                         f"got {order}"):
        frac_exterior_deriv(parse_expr("x1^2", XY), order, XY)
    with pytest.raises(ValueError, match="differential order must be >= 0 and finite, got inf"):
        parse_form("x1 d(x1,1e999)", XY)


def test_diff_factor_key_is_set_once_and_ignored_by_equality():
    a, b = DiffFactor(0, 0.5), DiffFactor(0, 0.5 + 1e-12)
    assert a.key == b.key == (0, 0.5)
    assert a != b  # factors compare their exact orders
    assert WedgeWord((a,)) == WedgeWord((b,))  # words compare keys
    assert WedgeWord((a, DiffFactor(1, 0.25))).key == ((0, 0.5), (1, 0.25))
    with pytest.raises(TypeError):
        DiffFactor(0, 0.5, key=(0, 1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.key = (0, 1.0)


# ---------------------------------------------------------------------------
# form construction


def one_form(c1, c2, nu=0.5, ctx=XY):
    terms = {}
    if c1 is not None:
        terms[WedgeWord((d("x1", nu),))] = parse_expr(c1, ctx)
    if c2 is not None:
        terms[WedgeWord((d("x2", nu),))] = parse_expr(c2, ctx)
    return Form(1, nu, terms)


def test_form_drops_zero_coefficients():
    a = one_form("x1 - x1", "x2")
    assert len(a.terms) == 1


def test_form_rejects_mixed_grades():
    w1 = WedgeWord((d("x1", 0.5),))
    w2 = WedgeWord((d("x1", 0.3), d("x2", 0.2)))
    with pytest.raises(ValueError):
        Form(1, 0.5, {w1: parse_expr("1", XY), w2: parse_expr("1", XY)})


def test_form_rejects_order_mismatch():
    w = WedgeWord((d("x1", 0.5),))
    with pytest.raises(ValueError):
        Form(1, 0.7, {w: parse_expr("1", XY)})


def test_scalar_form_wraps_expression():
    s = Form.scalar(parse_expr("x1^2", XY))
    assert s.grade == 0
    assert s.total_order == 0.0


def test_form_arithmetic():
    a = one_form("x1", None)
    b = one_form(None, "x2")
    total = a + b
    assert len(total.terms) == 2
    assert forms_close(total - b, a)
    assert forms_close(2.0 * a, a + a)


def test_form_sums_pairs_of_equal_words_in_order():
    w1, w2 = WedgeWord((d("x1", 0.5),)), WedgeWord((d("x2", 0.5),))

    def e(text):
        return parse_expr(text, XY)

    got = Form(1, 0.5, [(w2, e("x1")), (w1, e("x2")), (w2, e("2*x2 - x1")),
                        (w1, -e("x2")), (w1, e("x1^2"))])
    assert list(got.terms) == [w1, w2]
    assert got.terms[w1] == e("x1^2") and got.terms[w2] == e("2*x2")
    assert got == Form(1, 0.5, {w2: e("2*x2"), w1: e("x1^2")})
    assert Form(1, 0.5, [(w1, e("x1")), (w1, -e("x1"))]).is_zero


def test_forms_of_different_orders_do_not_add():
    with pytest.raises(ValueError, match="different grade or total order"):
        one_form("x1", None, nu=0.5) + one_form("x1", None, nu=0.7)


def test_components_need_a_grade_1_form():
    with pytest.raises(ValueError, match="grade-1"):
        parse_form("x1 d(x1,0.5) & d(x2,0.5)", XY).component(0, 2)


def test_forms_close_tolerance():
    a = one_form("x1", None)
    b = one_form("x1 + 0.000000000001*x1", None)
    assert forms_close(a, b, tol=1e-9)
    assert not forms_close(a, b, tol=1e-15)


def test_forms_close_word_on_one_side_only():
    # the d(x2, 0.5) word carries a coefficient in a and is absent from b
    a = one_form("x1", "1e-10*x2 + 3e-11*x1*x2")
    b = one_form("x1", None)
    for lhs, rhs in ((a, b), (b, a)):
        assert not forms_close(lhs, rhs, tol=5e-11)  # 1e-10 is above tol
        assert forms_close(lhs, rhs, tol=1e-10)      # every coefficient at or below tol
    # every word is on one side only and below tol, but the grades differ
    small = one_form(None, "1e-10*x2")
    assert forms_close(small, Form.zero(1, 0.5), tol=1e-9)
    assert not forms_close(small, Form.zero(0, 0.0), tol=1e-9)
    assert not forms_close(Form.zero(0, 0.0), small, tol=1e-9)


# ---------------------------------------------------------------------------
# wedge product


def test_wedge_concatenates_and_signs():
    a = one_form("x2", None)
    b = one_form(None, "x1")
    ab = wedge(a, b)
    assert ab.grade == 2
    assert ab.total_order == pytest.approx(1.0)
    ba = wedge(b, a)
    assert forms_close(ab, -1.0 * ba)


def test_wedge_same_direction_vanishes():
    a = one_form("x1", None)
    b = one_form("x2", None)
    assert wedge(a, b).is_zero


def test_grade_zero_wedge_is_multiplication():
    s = Form.scalar(parse_expr("x1", XY))
    a = one_form("x2", None)
    got = wedge(s, a)
    want = one_form("x1*x2", None)
    assert forms_close(got, want, tol=1e-12)


def test_wedge_exceeding_coordinate_count_need_not_vanish():
    # distinct orders along one coordinate are independent directions
    X = Context.of(("x",))
    a = Form(1, 0.3, {WedgeWord((d("x", 0.3),)): parse_expr("1", X)})
    b = Form(1, 0.7, {WedgeWord((d("x", 0.7),)): parse_expr("1", X)})
    assert not wedge(a, b).is_zero


@st.composite
def random_one_forms(draw, nu=0.5):
    def coeff():
        c = draw(st.floats(min_value=-5.0, max_value=5.0))
        p = draw(st.integers(min_value=0, max_value=3))
        return monomial(XYZ, c, {0: float(p), 1: float(draw(st.integers(0, 2)))})

    terms = {
        WedgeWord((d(name, nu),)): coeff() for name in ("x1", "x2", "x3")
    }
    return Form(1, nu, terms)


@given(random_one_forms(), random_one_forms())
@settings(max_examples=100, deadline=None)
def test_wedge_anticommutes_on_one_forms(a, b):
    assert forms_close(wedge(a, b), -1.0 * wedge(b, a), tol=1e-10)


@given(random_one_forms(), random_one_forms(), random_one_forms())
@settings(max_examples=60, deadline=None)
def test_wedge_associates(a, b, c):
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert forms_close(lhs, rhs, tol=1e-9)


@given(random_one_forms(), random_one_forms(), random_one_forms())
@settings(max_examples=60, deadline=None)
def test_wedge_distributes(a, b, c):
    lhs = wedge(a, b + c)
    rhs = wedge(a, b) + wedge(a, c)
    assert forms_close(lhs, rhs, tol=1e-9)


def test_even_grades_commute():
    a = wedge(one_form("x1", None), one_form(None, "x2"))
    b = Form(
        2,
        0.6,
        {WedgeWord((d("x1", 0.1), d("x2", 0.5))): parse_expr("x2", XY)},
    )
    assert forms_close(wedge(a, b), wedge(b, a), tol=1e-12)


# ---------------------------------------------------------------------------
# fractional exterior derivative


def test_derivative_of_scalar_produces_one_form():
    got = frac_exterior_deriv(parse_expr("x1", XY), 0.5, XY)
    assert got.grade == 1
    assert got.total_order == 0.5
    cx1 = got.coefficient(WedgeWord((d("x1", 0.5),)), 2)
    assert exprs_close(cx1, monomial(XY, 1.1283791670955126, {0: 0.5}), tol=1e-10)
    cx2 = got.coefficient(WedgeWord((d("x2", 0.5),)), 2)
    assert exprs_close(
        cx2, monomial(XY, 0.5641895835477563, {0: 1.0, 1: -0.5}), tol=1e-10
    )


def test_derivative_order_zero_keeps_grade():
    f = parse_expr("x1", XY)
    got = frac_exterior_deriv(f, 0.0, XY)
    assert got.grade == 0
    # the defining sum runs over both coordinates, each contributing f itself
    assert exprs_close(got.coefficient(WedgeWord(()), 2), 2.0 * f, tol=1e-12)


def test_classical_reduction_at_order_one():
    f = parse_expr("x1^3*x2 + x2^2", XY)
    got = frac_exterior_deriv(f, 1.0, XY)
    for i, name in enumerate(("x1", "x2")):
        want = classical_derivative(f, i)
        assert exprs_close(got.coefficient(WedgeWord((d(name, 1.0),)), 2), want, tol=1e-10)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=-4.0, max_value=4.0).filter(lambda c: abs(c) > 1e-3),
)
@settings(max_examples=100, deadline=None)
def test_classical_reduction_randomized(p1, p2, c):
    f = monomial(XY, c, {0: float(p1), 1: float(p2)})
    got = frac_exterior_deriv(f, 1.0, XY)
    for i, name in enumerate(("x1", "x2")):
        want = classical_derivative(f, i)
        assert exprs_close(got.coefficient(WedgeWord((d(name, 1.0),)), 2), want, tol=1e-10)


@st.composite
def power_product_forms(draw, nu):
    """A grade-0 or grade-1 form over XYZ with power-product coefficients."""
    def coeff():
        out = monomial(XYZ, 0.0, {})
        for _ in range(draw(st.integers(1, 3))):
            c = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.01, 5.0))
            exps = draw(st.lists(
                st.one_of(st.sampled_from((0.0, 1.0, 2.0, nu - 1.0)),
                          st.floats(min_value=-0.95, max_value=2.95)),
                min_size=3, max_size=3))
            out = out + monomial(XYZ, c, dict(enumerate(exps)))
        return out

    if draw(st.booleans()):
        return Form.scalar(coeff())
    return Form(1, nu, {WedgeWord((DiffFactor(i, nu),)): coeff()
                        for i in range(3) if draw(st.booleans())})


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_derivative_applied_twice_vanishes(nu, data):
    # mixed fractional partials commute on power products, and repeated
    # directions die by antisymmetry, so d(d f) = 0 on this class
    f = parse_expr("x1^2*x2 + 3*x1", XY)
    dd = frac_exterior_deriv(frac_exterior_deriv(f, nu, XY), nu, XY)
    assert dd.is_zero
    # grade 0 -> 2 and grade 1 -> 3 over three coordinates; the second
    # derivative never runs along a coordinate the first one lowered, so no
    # exponent the first pushed to -1 or below can raise
    a = data.draw(power_product_forms(nu))
    dd = frac_exterior_deriv(frac_exterior_deriv(a, nu, XYZ), nu, XYZ)
    assert dd.is_zero
    assert dd.grade == a.grade + 2


def test_derivative_is_linear():
    f = parse_expr("x1^2", XY)
    g = parse_expr("x2", XY)
    lhs = frac_exterior_deriv(f + g, 0.5, XY)
    rhs = frac_exterior_deriv(f, 0.5, XY) + frac_exterior_deriv(g, 0.5, XY)
    assert forms_close(lhs, rhs, tol=1e-12)


def test_derivative_raises_grade_of_one_forms():
    a = one_form("x2", None)
    got = frac_exterior_deriv(a, 0.5, XY)
    assert got.grade == 2
    assert got.total_order == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# parse / print / serialize


@pytest.mark.parametrize(
    "text",
    [
        "2 d(x1,2)",
        "x2 d(x1,0.5) + x1 d(x2,0.5)",
        "x2 d(x1,0.5) & d(x2,0.5)",
        "-1 d(x1,0.5)",
        "-1*x1 d(x1,0.5) - x2 d(x2,0.5)",
        "x1^2*x2",
        "3*x1^0.5 d(x1,0.3) & d(x1,0.7)",
    ],
)
def test_form_text_round_trip(text):
    form = parse_form(text, XY)
    printed = print_form(form, XY)
    assert parse_form(printed, XY) == form


def test_parse_rejects_mixed_grade_sums():
    from fracforms import ParseError

    with pytest.raises(ParseError):
        parse_form("x1 d(x1,0.5) + x2", XY)


def test_parse_rejects_mixed_order_sums():
    from fracforms import ParseError

    with pytest.raises(ParseError):
        parse_form("x1 d(x1,0.5) + x2 d(x2,0.7)", XY)


def test_print_applies_word_sign():
    form = parse_form("x1 d(x2,0.5) & d(x1,0.5)", XY)
    assert print_form(form, XY) == "-1*x1 d(x1,0.5) & d(x2,0.5)"


def test_json_round_trip():
    form = parse_form("x2 d(x1,0.5) & d(x2,0.5) - x1 d(x1,0.3) & d(x1,0.7)", XY)
    blob = form_to_json(form, XY)
    assert form_from_json(blob, XY) == form


def test_json_shape():
    blob = form_to_json(parse_form("x2 d(x1,0.5)", XY), XY)
    assert blob["grade"] == 1
    assert blob["total_order"] == 0.5
    assert blob["terms"] == [
        {"sign": 1, "factors": [{"coord": "x1", "order": 0.5}], "coeff": "x2"}
    ]
