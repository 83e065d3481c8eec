"""GL weights and the compensated weighted-sum kernel behind the quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracforms import gen_binomial
from fracforms.kernels import (
    BLOCK,
    FSUM_TAIL,
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
    # several blocks; every block's fold obeys the same bound
    rng = np.random.default_rng(seed)
    t = 1.0 - np.arange(n) / n
    f = t**p + rng.normal(size=n) * 10.0 ** rng.uniform(-30, 0, size=n)
    w = gl_weights(q, n + 3)
    want, bound = _fsum_bound(w, f)
    assert abs(gl_weighted_sum(f, w) - want) <= bound


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


def _unblocked_sum(fvals, weights):
    """The kernel as it was before blocking: one fold over all n products."""
    fvals = np.asarray(fvals, dtype=np.float64)
    n = fvals.shape[0]
    a = np.multiply(weights[:n], fvals)
    s_buf = np.empty((n + 1) // 2)
    bb_buf = np.empty(n // 2)
    err_sums = []
    m = n
    while m > FSUM_TAIL:
        h = m // 2
        x, y, s, bb = a[:h], a[h:2 * h], s_buf[:h], bb_buf[:h]
        np.add(x, y, out=s)
        np.subtract(s, x, out=bb)
        np.subtract(y, bb, out=y)
        np.subtract(s, bb, out=bb)
        np.subtract(x, bb, out=x)
        np.add(x, y, out=x)
        err_sums.append(float(x.sum()))
        if m & 1:
            s_buf[h] = a[m - 1]
            h += 1
        a, s_buf, m = s_buf, a, h
    return math.fsum(a[:m].tolist() + err_sums)


@given(
    st.floats(min_value=-2.0, max_value=2.0, exclude_min=True, exclude_max=True),
    st.integers(min_value=0, max_value=BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
)
@example(0.7, 0, 0, 1)
@example(0.7, FSUM_TAIL + 1, 0, 1)
@example(1.3, BLOCK - 1, 1, 2)
@example(-0.4, BLOCK, 2, 3)
@settings(max_examples=100, deadline=None)
def test_one_block_sum_is_the_unblocked_kernel_bit_for_bit(q, n, seed, stride):
    # strided samples, as each Richardson level passes them
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n * stride)[::stride] * 10.0 ** rng.uniform(-20, 20, size=n)
    w = gl_weights(q, n + 1)
    assert gl_weighted_sum(f, w) == _unblocked_sum(f, w)


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
