"""GL weights and the compensated weighted-sum kernel behind the quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracforms import gen_binomial
from fracforms.kernels import backend, gl_weighted_sum, gl_weights


def test_weights_match_binomial_closed_form():
    q = 0.5
    w = gl_weights(q, 41)
    for k in range(41):
        want = (-1.0) ** k * gen_binomial(q, k)
        assert w[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_weights_first_entry_is_one():
    for q in (0.0, 0.3, 1.0, 1.7, 2.5):
        assert gl_weights(q, 5)[0] == 1.0


def test_whole_order_weights_terminate():
    w = gl_weights(2.0, 6)
    assert w[:3] == pytest.approx([1.0, -2.0, 1.0])
    assert np.all(w[3:] == 0.0)


@given(st.floats(min_value=0.05, max_value=2.5), st.integers(min_value=1, max_value=200))
@settings(max_examples=100, deadline=None)
def test_weights_recurrence(q, n):
    w = gl_weights(q, n)
    assert len(w) == n
    assert w[0] == 1.0
    for k in range(1, n):
        assert w[k] == pytest.approx(w[k - 1] * (k - 1 - q) / k, rel=1e-14, abs=1e-300)


def test_numpy_sum_matches_fsum():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=500)
    w = gl_weights(0.7, 500)
    want = math.fsum(float(w[k]) * float(vals[k]) for k in range(500))
    assert gl_weighted_sum(vals, w) == pytest.approx(want, rel=1e-13, abs=1e-13)


def _fsum_bound(w, f):
    """math.fsum of the rounded products, and the kernel's stated error bound."""
    prods = w[: len(f)] * f
    want = math.fsum(prods.tolist())
    return want, 2.0**-50 * abs(want) + len(f) * 2.0**-104 * math.fsum(np.abs(prods).tolist())


@given(
    st.floats(min_value=-2.0, max_value=2.0, exclude_min=True, exclude_max=True),
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sum_matches_fsum_property(q, n, p, seed):
    # GL samples of t^p on (0, 1], which the weights cancel down to about
    # h^q D^q t^p, plus noise spread over 30 decades of magnitude
    rng = np.random.default_rng(seed)
    t = 1.0 - np.arange(n) / n
    f = t**p + rng.normal(size=n) * 10.0 ** rng.uniform(-30, 0, size=n)
    w = gl_weights(q, n + 3)
    want, bound = _fsum_bound(w, f)
    assert abs(gl_weighted_sum(f, w) - want) <= bound


def test_sum_is_accurate_on_an_ill_conditioned_gl_sum():
    # D^1.9 t^0.9 sits on a pole of 1/gamma(p - q + 1): the GL sum cancels to
    # far below its largest products, where a plain pairwise sum is wrong
    n = 500_001
    h = 2.0 / (n - 1)
    f = (2.0 - h * np.arange(n)) ** 0.9
    w = gl_weights(1.9, n)
    want, bound = _fsum_bound(w, f)
    assert math.fsum(np.abs(w * f).tolist()) > 1e12 * abs(want)
    assert abs(gl_weighted_sum(f, w) - want) <= bound


def test_dispatch_reports_a_backend():
    assert backend() == "numpy"
    got = gl_weighted_sum(np.array([1.0, 2.0, 3.0]), gl_weights(1.0, 10))
    assert got == 1.0 - 2.0  # weights 1, -1, 0, ...
