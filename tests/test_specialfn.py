"""Gamma-family scalar helpers, cross-checked against mpmath.

mpmath computes every reference value independently (50 digits), so any
agreement here is between two implementations that share no code.
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracforms import PoleError, gamma, gamma_ratio, gen_binomial, rgamma, whole_ceil

mpmath.mp.dps = 50


def mp_gamma(x):
    return float(mpmath.gamma(x))


# ---------------------------------------------------------------------------
# gamma


@pytest.mark.parametrize(
    "x, expected",
    [
        (1.0, 1.0),
        (2.0, 1.0),
        (5.0, 24.0),
        (0.5, 1.7724538509055160),  # sqrt(pi)
        (-0.5, -3.5449077018110320),  # -2 sqrt(pi)
        (1.5, 0.8862269254527580),
        (2.5, 1.3293403881791370),
    ],
)
def test_gamma_reference_values(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_pole_raises(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_gamma_near_pole_raises():
    # within the pole snapping tolerance
    with pytest.raises(PoleError):
        gamma(-3.0 + 1e-13)


@pytest.mark.parametrize("x", [-3.0 + 1e-11, -3.0 - 1e-11, 1e-10, -7.0 + 9e-10])
def test_gamma_raises_wherever_rgamma_is_zero(x):
    assert rgamma(x) == 0.0
    with pytest.raises(PoleError):
        gamma(x)


@given(st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=1000, deadline=None)
def test_gamma_recurrence(x):
    # gamma(x + 1) = x gamma(x)
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@given(st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=300, deadline=None)
def test_gamma_matches_mpmath(x):
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) < 0.01:
        return  # too close to a pole for a meaningful comparison
    assert gamma(x) == pytest.approx(mp_gamma(x), rel=1e-12)


# ---------------------------------------------------------------------------
# rgamma


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -15.0])
def test_rgamma_zero_at_poles(x):
    assert rgamma(x) == 0.0


def test_rgamma_near_pole_snaps_to_zero():
    assert rgamma(-2.0 + 1e-11) == 0.0


@pytest.mark.parametrize(
    "x, expected",
    [
        (1.0, 1.0),
        (0.5, 0.5641895835477563),  # 1/sqrt(pi)
        (3.0, 0.5),
        (2.5, 0.7522527780636751),
    ],
)
def test_rgamma_reference_values(x, expected):
    assert rgamma(x) == pytest.approx(expected, rel=1e-13)


def test_rgamma_overflow_and_underflow_keep_the_sign_of_gamma():
    # 1/gamma beyond the double range: gamma(-180.5) is a tiny negative
    # number, gamma(200) a huge positive one
    assert rgamma(-180.5) == -math.inf
    under = rgamma(200.0)
    assert under == 0.0 and math.copysign(1.0, under) == 1.0


@given(st.floats(min_value=-40.0, max_value=40.0))
@settings(max_examples=500, deadline=None)
def test_rgamma_times_gamma_is_one(x):
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) < 0.01:
        return
    assert rgamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# gamma_ratio


def test_gamma_ratio_plain():
    assert gamma_ratio((5.0,), (3.0,)) == pytest.approx(12.0, rel=1e-13)


def test_gamma_ratio_shared_argument_cancels_exactly():
    # identical factors must cancel without round-off
    assert gamma_ratio((17.3, 2.0), (17.3, 2.0)) == 1.0
    assert gamma_ratio((0.7,), (0.7,)) == 1.0


def test_gamma_ratio_denominator_pole_gives_zero():
    assert gamma_ratio((2.0,), (-1.0,)) == 0.0
    assert gamma_ratio((2.0,), (0.0,)) == 0.0


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(PoleError):
        gamma_ratio((-2.0,), (1.5,))


@given(
    st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=3),
    st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_gamma_ratio_matches_mpmath(nums, dens):
    want = float(
        mpmath.fprod([mpmath.gamma(v) for v in nums])
        / mpmath.fprod([mpmath.gamma(v) for v in dens])
    )
    assert gamma_ratio(tuple(nums), tuple(dens)) == pytest.approx(want, rel=1e-11)


def test_gamma_ratio_large_arguments_stay_finite():
    # naive gamma(160)/gamma(158) would overflow before dividing
    val = gamma_ratio((160.0,), (158.0,))
    assert val == pytest.approx(159.0 * 158.0, rel=1e-12)
    assert math.isfinite(val)


def test_gamma_ratio_overflow_and_underflow_keep_the_sign():
    assert gamma_ratio((200.0,), (1.0,)) == math.inf
    under = gamma_ratio((-180.5,), (1.0,))
    assert under == 0.0 and math.copysign(1.0, under) == -1.0


# ---------------------------------------------------------------------------
# gen_binomial


@pytest.mark.parametrize(
    "q, j, expected",
    [
        (3.0, 2, 3.0),
        (0.5, 2, -0.125),
        (2.0, 5, 0.0),
        (4.0, 4, 1.0),
        (-1.0, 3, -1.0),
    ],
)
def test_gen_binomial_reference_values(q, j, expected):
    assert gen_binomial(q, j) == pytest.approx(expected, abs=1e-14)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_gen_binomial_j_zero_is_one(q):
    assert gen_binomial(q, 0) == 1.0


def test_gen_binomial_negative_j_rejected():
    with pytest.raises(ValueError):
        gen_binomial(0.5, -1)


@given(st.integers(min_value=0, max_value=12), st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=200, deadline=None)
@example(j=2, q=1.0 + 5e-10)
def test_gen_binomial_matches_mpmath(j, q):
    want = float(mpmath.binomial(q, j))
    assert gen_binomial(q, j) == pytest.approx(want, rel=1e-12, abs=1e-15)


@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=300, deadline=None)
@example(a=1.0, b=1e-10, k=1)
def test_gen_binomial_vandermonde(a, b, k):
    # sum_j C(a, j) C(b, k - j) = C(a + b, k)
    total = math.fsum(gen_binomial(a, j) * gen_binomial(b, k - j) for j in range(k + 1))
    assert total == pytest.approx(gen_binomial(a + b, k), abs=1e-10)


# ---------------------------------------------------------------------------
# whole_ceil


@pytest.mark.parametrize(
    "q, expected",
    [(0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2), (2.7, 3), (0.001, 1)],
)
def test_whole_ceil(q, expected):
    assert whole_ceil(q) == expected


def test_whole_ceil_snaps_near_integers():
    # floating noise just above a whole order must not bump the index
    assert whole_ceil(1.0 + 1e-12) == 1
    assert whole_ceil(2.0 - 1e-12) == 2


def test_positive_is_the_one_order_domain():
    from fracforms.specialfn import positive

    assert positive(2, "order") == 2.0 and type(positive(2, "order")) is float
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^kernel order must be positive and finite, got {bad}$"):
            positive(bad, "kernel order")
