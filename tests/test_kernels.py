"""GL weights and the blocked weighted-sum kernel behind the quadrature."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracforms import gen_binomial
from fracforms.kernels import (
    BLOCK,
    HEAD,
    backend,
    gl_level_sums,
    gl_weighted_sum,
    gl_weights,
)


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


def _sequential_weights(q, n):
    """The weights from one unblocked cumprod of the ratios (k - 1 - q) / k."""
    w = np.empty(n)
    w[0] = 1.0
    k = np.arange(1, n, dtype=np.float64)
    np.cumprod((k - 1.0 - q) / k, out=w[1:])
    return w


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 5])
@pytest.mark.parametrize("q", [0.4, -1.3, 1.9, 0.0, 1.0, 2.0, 3.0])
def test_blocked_weights_equal_one_cumprod_byte_for_byte(q, n):
    # at whole q the weights end in exact zeros, negative ones for odd q,
    # which the carried weight must take across every block edge
    got = gl_weights(q, n)
    assert got.tobytes() == _sequential_weights(q, n).tobytes()
    if q == 3.0 and n > BLOCK + 1:
        assert np.signbit(got[BLOCK:BLOCK + 2]).all() and not got[4:].any()


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


def _plain_bound(prods, *sums):
    """The bound of the kernel's sum of ``prods`` from the exact sum, as the
    kernels module derives it: gamma_d sum |p_k|, with d the most additions
    between a product and numpy's pairwise sum of a block of b products (24
    in its unrolled base case of up to 128 values, plus ceil(log2(b / 112))
    halvings), and one rounding, 2^-53 |s|, for each of ``sums``."""
    b = min(len(prods), BLOCK)
    d = 24 + max(0, math.ceil(math.log2(b / 112)))
    u = 2.0**-53
    return d * u / (1 - d * u) * math.fsum(np.abs(prods).tolist()) + u * sum(map(abs, sums))


def _matches_fsum(f, w):
    """The kernel's sum of the products w_k f_k is within its bound of their
    math.fsum: both are within it of the exact sum, fsum by one rounding."""
    prods = w[: len(f)] * f
    want = math.fsum(prods.tolist())
    got = gl_weighted_sum(f, w)
    return abs(got - want) <= _plain_bound(prods, got, want)


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
    assert _matches_fsum(f, gl_weights(q, n + 3))


# sizes on and around block edges, plus anything up to four blocks and a
# ragged tail
_block_sizes = st.one_of(
    st.integers(min_value=1, max_value=4 * BLOCK + 17),
    st.builds(lambda j, d: j * BLOCK + d, st.integers(min_value=1, max_value=4),
              st.integers(min_value=-2, max_value=17)),
)


@given(
    st.floats(min_value=-2.0, max_value=2.0, exclude_min=True, exclude_max=True),
    _block_sizes,
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(0.5, 4 * BLOCK + 17, 0.0, 0)
@example(1.9, BLOCK + 1, 0.9, 1)
@settings(max_examples=60, deadline=None)
def test_sum_matches_fsum_across_blocks_property(q, n, p, seed):
    # the samples of test_sum_matches_fsum_property at sizes that span
    # several blocks; every block's sum obeys the bound of one block
    rng = np.random.default_rng(seed)
    t = 1.0 - np.arange(n) / n
    f = t**p + rng.normal(size=n) * 10.0 ** rng.uniform(-30, 0, size=n)
    assert _matches_fsum(f, gl_weights(q, n + 3))


@given(
    st.floats(min_value=-2.0, max_value=2.0, exclude_min=True, exclude_max=True),
    _block_sizes,
    st.permutations(range(1, 17)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(0.4, 16 * BLOCK + 1, list(range(16, 0, -1)), 0)
@example(-1.3, 2 * BLOCK, list(range(1, 17)), 1)
@example(1.9, BLOCK + 1, list(range(1, 17)), 2)
@example(0.7, 40, list(range(1, 17)), 3)  # levels shorter than HEAD
@settings(max_examples=40, deadline=None)
def test_one_pass_level_sums_equal_each_level_summed_alone(q, n, strides, seed):
    # every stride's level is the kernel's sum of vals[::s] with its own
    # weights, bit for bit; for q > 0 its first HEAD samples are summed as
    # differences from vals[0], and vals[0] times their weights' fsum is
    # added back
    rng = np.random.default_rng(seed)
    t = 1.0 - np.arange(n) / n
    vals = t**1.5 + rng.normal(size=n) * 10.0 ** rng.uniform(-20, 0, size=n)
    before = vals.tobytes()
    got = gl_level_sums(q, vals, strides)
    assert vals.tobytes() == before
    head = HEAD if q > 0 else 0
    f0 = float(vals[0])
    for s, total in zip(strides, got):
        level = vals[::s].copy()
        w = gl_weights(q, level.shape[0])
        level[:head] -= f0
        want = gl_weighted_sum(level, w)
        if head:
            want += f0 * math.fsum(w[:head].tolist())
        assert total == want, s


@given(
    st.floats(min_value=-2.0, max_value=2.0, exclude_min=True, exclude_max=True),
    st.integers(min_value=0, max_value=BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
)
@example(0.7, 0, 0, 1)
@example(0.7, 129, 0, 1)  # numpy's pairwise sum halves once
@example(1.3, BLOCK - 1, 1, 2)
@example(-0.4, BLOCK, 2, 3)
@settings(max_examples=100, deadline=None)
def test_one_block_sum_is_one_reduction_of_its_products(q, n, seed, stride):
    # strided samples, as each Richardson level passes them
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n * stride)[::stride] * 10.0 ** rng.uniform(-20, 20, size=n)
    w = gl_weights(q, n + 1)
    assert gl_weighted_sum(f, w) == float(np.add.reduce(w[:n] * f))


def test_level_sum_is_accurate_on_an_ill_conditioned_gl_sum():
    # D^1.9 t^0.9 sits on a pole of 1/gamma(p - q + 1): the GL sum cancels to
    # far below its largest products.  Centring the first HEAD samples on
    # f0 is what removes that cancellation: the centred products are small,
    # and the level sum is their plain sum plus f0 times the HEAD weights
    n = 500_001
    h = 2.0 / (n - 1)
    f = (2.0 - h * np.arange(n)) ** 0.9
    w = gl_weights(1.9, n)
    centred = f.copy()
    centred[:HEAD] -= f[0]
    prods = w * centred
    back = f[0] * math.fsum(w[:HEAD].tolist())
    magnitude = math.fsum(np.abs(w * f).tolist())
    assert magnitude > 1e12 * abs(math.fsum(prods.tolist()) + back)
    assert math.fsum(np.abs(prods).tolist()) < 1e-3 * magnitude
    total = gl_weighted_sum(centred, w)
    assert gl_level_sums(1.9, f, [1]) == [total + back]
    assert _matches_fsum(centred, w)


# (p, q, x): GL sums of t^p on (0, x] of both signs of q, on and off a pole
# of 1/gamma(p - q + 1)
_EXACT_CASES = [(0.9, 1.9, 2.0), (1.5, -0.7, 2.0), (1.5, -1.3, 2.0), (2.2, 0.4, 2.0),
                (1.5, 0.5, 1.0), (0.5, 1.5, 1.0), (3.0, -0.5, 1.5)]


@pytest.mark.parametrize("p, q, x", _EXACT_CASES)
def test_level_sum_is_about_as_far_from_the_exact_gl_sum_as_its_products(p, q, x):
    # the exact GL sum of t^p at the nodes x - k x / n, with exact weights,
    # at 40 digits: the products w_k f_k as rounded are off it by their
    # samples' rounding and their weights' drift, and summing them adds at
    # most as much again
    n = 4001
    t = x - x / n * np.arange(n)
    f = t**p
    w = gl_weights(q, n)
    with mpmath.workdps(40):
        wk, exact = mpmath.mpf(1), mpmath.mpf(0)
        for k, tk in enumerate(t.tolist()):
            if k:
                wk *= (k - 1 - mpmath.mpf(q)) / k
            exact += wk * mpmath.mpf(tk) ** p
        got = abs(gl_level_sums(q, f, [1])[0] - exact)
        data = abs(math.fsum((w * f).tolist()) - exact)
    assert got <= 2 * data


def test_dispatch_reports_a_backend():
    assert backend() == "numpy"
    got = gl_weighted_sum(np.array([1.0, 2.0, 3.0]), gl_weights(1.0, 10))
    assert got == 1.0 - 2.0  # weights 1, -1, 0, ...
