"""Grunwald-Letnikov quadrature and Richardson extrapolation.

Reference values come from the closed-form power rule evaluated by hand with
high-precision gamma factors, never from the symbolic module under test.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracforms import (
    Context,
    Expr,
    NonConvergenceWarning,
    QuadratureDomainError,
    expr_evaluable,
    expr_univariate,
    gl_deriv,
    monomial,
    parse_expr,
    richardson,
)
from fracforms import oracle
from fracforms.kernels import BLOCK, gl_level_sums, gl_weights
from fracforms.oracle import MIN_STEPS, freeze_all_but

SQRT_PI = 1.7724538509055160


# ---------------------------------------------------------------------------
# plain sums


def test_half_derivative_of_identity():
    # D^0.5 t at t=1 is 2/sqrt(pi)
    got = gl_deriv(lambda t: t, 0.5, 1.0, 0.0, h=1e-4)
    assert got == pytest.approx(2.0 / SQRT_PI, rel=1e-3)


def test_whole_derivative_of_constant_is_exact_zero():
    # order-1 weights cut off after two nodes, so the sum telescopes to zero
    assert gl_deriv(lambda t: np.ones_like(t), 1.0, 2.0, 0.0, h=1e-3) == 0.0


def test_whole_derivative_of_square():
    got = gl_deriv(lambda t: t * t, 1.0, 3.0, 0.0, h=1e-4)
    assert got == pytest.approx(6.0, rel=1e-4)


def test_order_zero_returns_the_sample():
    f = lambda t: np.cos(t)
    assert gl_deriv(f, 0.0, 1.3, 0.0, h=1e-3) == pytest.approx(math.cos(1.3), abs=1e-15)


def test_half_integral_of_identity():
    # D^-0.5 t at t=1 is gamma(2)/gamma(2.5)
    got = gl_deriv(lambda t: t, -0.5, 1.0, 0.0, h=1e-4)
    assert got == pytest.approx(0.7522527780636751, rel=1e-3)


def test_shifted_initial_point():
    got = gl_deriv(lambda t: t - 2.0, 0.5, 3.0, 2.0, h=1e-4)
    assert got == pytest.approx(2.0 / SQRT_PI, rel=1e-3)


def _rounding_floor(f, q, x, h):
    """eps * h^-q * sum |w_k f(t_k)|: the rounding of a GL sum at the level
    of its samples, on the grid gl_deriv takes for the step h."""
    steps = int(round(x / h))
    step = x / steps
    nodes = x - step * np.arange(steps + 1, dtype=np.float64)
    weighted = gl_weights(q, steps + 1) * f(nodes)
    return np.finfo(np.float64).eps * step ** (-q) * float(np.sum(np.abs(weighted)))


@given(
    st.floats(min_value=0.1, max_value=1.9),
    st.floats(min_value=0.5, max_value=3.0),
)
@example(q=1.9, x=2.9999999999999996)  # 7.2e-9 apart, over the old fixed 1e-9 relative bound
@example(q=1.8828125, x=2.9999999999999996)
@settings(max_examples=60, deadline=None)
def test_linearity_in_the_integrand(q, x):
    f = lambda t: t
    g = lambda t: t * t
    combo_f = lambda t: 2.0 * t + 3.0 * t * t
    combo = gl_deriv(combo_f, q, x, 0.0, h=1e-3)
    parts = 2.0 * gl_deriv(f, q, x, 0.0, h=1e-3) + 3.0 * gl_deriv(g, q, x, 0.0, h=1e-3)
    # the sums agree to their rounding floor, which h^-q amplifies near q = 2,
    # with a factor of 1: the floor counts eps per product, and over 4 000
    # uniform draws and 305 draws on a grid up to x = 3 the difference
    # peaked at 0.50 of it
    floor = (_rounding_floor(combo_f, q, x, 1e-3) + 2.0 * _rounding_floor(f, q, x, 1e-3)
             + 3.0 * _rounding_floor(g, q, x, 1e-3))
    assert abs(combo - parts) <= floor


@pytest.mark.parametrize("q, x", [(1.8828125, 3.0), (1.9, 2.5), (0.7, 1.3)])
def test_sum_is_the_gl_sum_of_its_samples_to_its_own_rounding(q, x):
    # the samples of t are the nodes, exact; summed in rationals with the
    # oracle's weights they give the GL sum the oracle must return, up to
    # rounding on the scale of the sum, not of its first products
    steps = int(round(x / 1e-3))
    h = x / steps
    nodes = x - h * np.arange(steps + 1, dtype=np.float64)
    exact = sum(Fraction(float(w)) * Fraction(float(t))
                for w, t in zip(gl_weights(q, steps + 1), nodes))
    want = float(exact) * h ** (-q)
    assert gl_deriv(lambda t: t, q, x, 0.0, h=1e-3) == pytest.approx(want, rel=1e-11, abs=0)


def test_first_order_convergence():
    # halving h should roughly halve the error on a smooth integrand
    exact = math.gamma(3.0) / math.gamma(2.5) * 2.0 ** 1.5
    errs = [
        abs(gl_deriv(lambda t: t * t, 0.5, 2.0, 0.0, h=h) - exact)
        for h in (1e-2, 5e-3)
    ]
    order = math.log2(errs[0] / errs[1])
    assert order == pytest.approx(1.0, abs=0.2)


# ---------------------------------------------------------------------------
# domain policy


def test_rejects_point_at_or_below_anchor():
    # the oracle's domain error, which a numeric chart entry wraps with its name
    with pytest.raises(QuadratureDomainError, match=r"above the initial point \(0.0 <= 0.0\)"):
        gl_deriv(lambda t: t, 0.5, 0.0, 0.0)
    with pytest.raises(QuadratureDomainError):
        richardson(lambda t: t, 0.5, -1.0, 0.0)


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        gl_deriv(lambda t: t, 0.5, 1.0, 0.0, h=0.0)


@pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
def test_both_sums_reject_a_step_that_is_not_positive_and_finite(h):
    for gl in (lambda: gl_deriv(lambda t: t, 0.5, 2.0, 0.0, h),
               lambda: richardson(lambda t: t, 0.5, 2.0, 0.0, h)):
        with pytest.raises(ValueError, match=f"GL step must be positive and finite, got {h}"):
            gl()


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_both_sums_reject_an_order_that_is_not_finite(q):
    for gl in (lambda: gl_deriv(lambda t: t, q, 2.0), lambda: richardson(lambda t: t, q, 2.0)):
        with pytest.raises(ValueError, match=f"GL order must be finite, got {q}"):
            gl()


@pytest.mark.parametrize("f, q", [
    (lambda t: t, 171.5),  # the scale h^-q
    (lambda t: 1e307 * t * t, -0.5),  # a block sum
    (lambda t: 1.7e308 * np.sign(np.cos(3 * t)), 1.5),  # a product w_k f_k
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_both_sums_name_an_overflow(f, q):
    # a typed error naming the operation, the order and the finest step,
    # not a bare OverflowError, and no warning from the sample probe before it
    for gl, h in ((lambda: gl_deriv(f, q, 2.0, 0.0, 1e-3), 0.001),
                  (lambda: richardson(f, q, 2.0, 0.0, 1e-3, levels=2), 0.0005)):
        with pytest.raises(QuadratureDomainError) as info:
            gl()
        assert str(info.value) == f"GL differintegral of order {q} at step {h} overflows a double"


@pytest.mark.parametrize("q", [-0.5, 0.5])
@pytest.mark.filterwarnings("error")
def test_an_overflowing_sum_or_scaled_level_is_named_without_a_warning(q):
    # samples of +-1.7e308: at q = -0.5 a block sum overflows, and at q = 0.5
    # the level sum and the scale h^-q each fit in a double but their
    # product does not
    def f(t):
        return 1.7e308 * np.sign(np.cos(3 * t))

    h = 1e-5
    if q > 0:
        total = gl_level_sums(q, f(2.0 - h * np.arange(200_001)), [1])[0]
        assert math.isfinite(total) and math.isinf(total * h**-q)
    with pytest.raises(QuadratureDomainError) as info:
        gl_deriv(f, q, 2.0, 0.0, h)
    assert str(info.value) == f"GL differintegral of order {q} at step {h} overflows a double"


def test_a_grid_over_the_node_cap_is_refused_before_it_is_sampled(monkeypatch):
    # _samples is replaced, so no call here allocates a grid: one at the cap
    # reaches it, and one over the cap is refused before it
    class Sampled(Exception):
        pass

    def samples(*args):
        raise Sampled

    monkeypatch.setattr(oracle, "_samples", samples)
    cap = 1 << 27
    h = 2.0 / (cap >> 4)  # 2^23 steps on (0, 2] at 5 levels: the cap
    with pytest.raises(Sampled):
        richardson(lambda t: t, 0.5, 2.0, 0.0, h, levels=5)
    for gl in (lambda: richardson(lambda t: t, 0.5, 2.0, 0.0, h * (1 - 2**-40), levels=5),
               lambda: gl_deriv(lambda t: t, 0.5, 2.0, 0.0, h / 32)):
        with pytest.raises(ValueError, match=rf"exceeds the cap of {cap} nodes"):
            gl()
    with pytest.raises(ValueError) as info:
        richardson(lambda t: t, 0.5, 2.0, 0.0, 1e-9, levels=5)
    assert str(info.value) == (f"GL grid of 3.2e+10 nodes (2.56e+11 bytes of samples) at "
                               f"step 1e-09 and 5 levels exceeds the cap of {cap} nodes")


def test_richardson_takes_at_least_min_steps():
    # a step too coarse for MIN_STEPS nodes is refined, as in gl_deriv
    res = richardson(lambda t: t * t, 1.0, 1.0, 0.0, h0=0.5)
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_gl_deriv_refines_a_step_too_coarse_for_min_steps():
    # h = 0.5 leaves 2 steps on [0, 1]; like richardson, gl_deriv takes
    # MIN_STEPS = 10 of them, the grid of h = 0.1
    assert MIN_STEPS == 10
    coarse = gl_deriv(lambda t: t, 0.5, 1.0, 0.0, h=0.5)
    assert coarse.hex() == gl_deriv(lambda t: t, 0.5, 1.0, 0.0, h=0.1).hex()


def test_singular_anchor_node_is_dropped():
    # t^-0.5 blows up at the anchor only; the quadrature skips that node
    got = gl_deriv(lambda t: np.asarray(t) ** -0.5, 0.5, 1.0, 0.0, h=1e-4)
    assert math.isfinite(got)
    # annihilated by the half derivative, up to the skipped-node defect
    assert got == pytest.approx(0.0, abs=1e-2)


def test_interior_singularity_rejected():
    f = lambda t: np.asarray(t) ** -0.5 + 1.0 / (np.asarray(t) - 0.5)
    with pytest.raises(QuadratureDomainError):
        gl_deriv(f, 0.5, 1.0, 0.0, h=1e-3)


@pytest.mark.parametrize("k", [100, 99])
def test_only_the_initial_point_node_may_be_undefined(k):
    # nan at node k = 100, t = a, drops that node; at k = 99, t = a + h, it is an error
    x, h = 1.0, 0.01
    bad = x - h * k
    f = lambda t: np.where(np.asarray(t) == bad, np.nan, 1.0 + np.asarray(t))
    if k == 100:
        assert math.isfinite(gl_deriv(f, 0.5, x, 0.0, h=h))
    else:
        with pytest.raises(QuadratureDomainError) as exc:
            gl_deriv(f, 0.5, x, 0.0, h=h)
        assert str(exc.value) == f"integrand undefined at sample node t={bad}"


def test_a_programming_error_in_the_integrand_propagates():
    # only arithmetic, value and type errors mark a node undefined
    calls = []

    def f(t):
        calls.append(t)
        assert False, "a bug"

    with pytest.raises(AssertionError, match="a bug"):
        richardson(f, 0.5, 1.0, 0.0, h0=1e-3, levels=3)
    assert len(calls) == 2  # the vectorized call, then the first node


def test_scalar_integrand_domain_failures_sample_as_nan():
    # math.sqrt raises ValueError below 0, a float power of a negative base is
    # complex (TypeError in float()), and 1/0 raises ZeroDivisionError: the
    # initial-point node is dropped for each, an interior one is rejected
    for f in (lambda t: math.sqrt(t) if t > 0 else math.sqrt(-1.0),
              lambda t: float(t) ** 0.5 if t > 0 else (-1.0) ** 0.5,
              lambda t: 1.0 / float(t) ** -0.5):
        assert math.isfinite(richardson(f, 0.5, 1.0, 0.0, h0=1e-3, levels=2).value)
    with pytest.raises(QuadratureDomainError):
        richardson(lambda t: math.sqrt(t - 0.5), 0.5, 1.0, 0.0, h0=1e-3, levels=2)


# ---------------------------------------------------------------------------
# Richardson extrapolation


def test_richardson_half_derivative_tightens():
    r = richardson(lambda t: t, 0.5, 1.0, 0.0, h0=1e-4, levels=3)
    assert r.converged
    assert r.value == pytest.approx(2.0 / SQRT_PI, abs=1e-6)


def test_richardson_endpoint_singular_derivative():
    # D^0.5 t^0.5 at t=1 is gamma(1.5); the integrand is edge-singular, so
    # the tolerance is looser than in the smooth case
    r = richardson(lambda t: np.sqrt(np.abs(t)), 0.5, 1.0, 0.0, h0=1e-4, levels=3)
    assert r.value == pytest.approx(0.8862269254527580, abs=1e-4)


def test_richardson_order_zero_is_exact():
    f = lambda t: np.exp(t)
    r = richardson(f, 0.0, 0.7, 0.0, h0=1e-3, levels=2)
    assert r.value == math.exp(0.7)
    assert r.error_estimate == 0.0


def test_richardson_beats_plain_sum():
    exact = 2.0 / SQRT_PI
    plain = abs(gl_deriv(lambda t: t, 0.5, 1.0, 0.0, h=1e-3) - exact)
    extra = abs(richardson(lambda t: t, 0.5, 1.0, 0.0, h0=1e-3, levels=3).value - exact)
    assert extra < plain / 100.0


def test_richardson_levels_validated():
    for bad in (1, 6):
        with pytest.raises(ValueError):
            richardson(lambda t: t, 0.5, 1.0, 0.0, levels=bad)


def test_richardson_warns_when_table_disagrees():
    # a strongly edge-singular integrand with a coarse grid defeats the
    # whole-power error model behind the extrapolation table
    with pytest.warns(NonConvergenceWarning):
        r = richardson(lambda t: np.sqrt(np.abs(t)), 0.5, 1.0, 0.0, h0=0.2, levels=5)
    assert not r.converged


def _table_from_gl_deriv(f, q, x, a, h0, levels):
    """Richardson's table rebuilt from independent gl_deriv calls per level."""
    steps0 = max(MIN_STEPS, round((x - a) / h0))
    rows = []
    for lvl in range(levels):
        row = [gl_deriv(f, q, x, a, h=(x - a) / (steps0 * 2**lvl))]
        for j in range(1, lvl + 1):
            row.append((2.0**j * row[j - 1] - rows[lvl - 1][j - 1]) / (2.0**j - 1.0))
        rows.append(row)
    return rows[-1][-1]


@pytest.mark.parametrize(
    "f, q, x, a, h0, levels",
    [
        (lambda t: np.exp(t) * np.sin(3.0 * t), 0.7, 1.3, 0.0, 1e-3, 5),
        (lambda t: np.asarray(t - 0.25) ** 1.5, -0.6, 1.15, 0.25, 0.07, 3),
        # endpoint-singular: every level drops its node at the anchor
        (lambda t: np.asarray(t) ** -0.5, 0.5, 2.0, 0.0, 1e-3, 4),
        (lambda t: np.asarray(t) ** -0.5, -1.3, 0.7, 0.0, 0.01, 5),
        # every level spans several blocks of the kernel
        (lambda t: np.exp(t) * np.sin(3.0 * t), 0.7, 2.0, 0.0, 2.0 / (BLOCK + 37), 3),
        # and the dropped node at the anchor lies in each level's last block
        (lambda t: np.asarray(t) ** -0.5, 0.5, 2.0, 0.0, 2.0 / (2 * BLOCK + 5), 3),
        (lambda t: np.asarray(t) ** -0.3, -0.6, 1.5, 0.0, 1.5 / (BLOCK + 1), 2),
    ],
)
def test_richardson_matches_per_level_gl_deriv_bit_for_bit(f, q, x, a, h0, levels):
    # one fine sampling, strided, must reproduce each level's own grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        got = richardson(f, q, x, a, h0=h0, levels=levels).value
    assert got == _table_from_gl_deriv(f, q, x, a, h0, levels)


def test_richardson_samples_the_integrand_once():
    shapes = []

    def f(t):
        shapes.append(np.shape(t))
        return np.cos(t)

    richardson(f, 0.5, 1.0, 0.0, h0=1e-3, levels=5)
    assert shapes == [(1000 * 2**4 + 1,)]


def test_richardson_samples_every_node_once_in_order():
    got = []

    def f(t):
        got.append(np.array(t, copy=True))
        return np.cos(t)

    steps0 = BLOCK // 3 + 7
    richardson(f, 0.5, 1.0, 0.0, h0=1.0 / steps0, levels=4)
    fine = steps0 * 2**3
    assert len(got) > 1
    h = 1.0 / fine
    assert np.concatenate(got).tobytes() == (1.0 - h * np.arange(fine + 1)).tobytes()


def test_first_bad_node_in_a_later_block_is_named():
    fine = 3 * BLOCK + 10
    x, h = 2.0, 2.0 / fine
    firsts = [2 * BLOCK + 5, 3 * BLOCK + 1]  # in the third and fourth blocks
    bad_nodes = x - h * np.array(firsts, dtype=np.float64)
    f = lambda t: np.where(np.isin(t, bad_nodes), np.nan, np.asarray(t) ** 0.5)
    with pytest.raises(QuadratureDomainError) as exc:
        gl_deriv(f, 0.5, x, 0.0, h=h)
    assert str(exc.value) == f"integrand undefined at sample node t={x - h * firsts[0]}"


def _undefined_at(x, h, bad, value=np.nan, elsewhere=lambda t: np.asarray(t) ** 0.5):
    """An integrand equal to ``value`` at the nodes x - h k, k in ``bad``."""
    bad_nodes = x - h * np.array(bad, dtype=np.float64)
    return lambda t: np.where(np.isin(t, bad_nodes), value, elsewhere(t))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [2, 20, BLOCK + 3])
def test_an_undefined_sample_under_a_zero_weight_is_named(k, value):
    # at q = 1 every weight from k = 2 on is an exact zero, and 0 * nan and
    # 0 * inf are nan: the block sum is not finite, so the scan runs
    x, h = 2.0, 2.0 / (2 * BLOCK + 10)
    assert gl_weights(1.0, 3).tolist() == [1.0, -1.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureDomainError) as exc:
            gl_deriv(_undefined_at(x, h, [k], value), 1.0, x, 0.0, h=h)
    assert str(exc.value) == f"integrand undefined at sample node t={x - h * k}"


@pytest.mark.parametrize("q", [0.5, 1.0, 1.9])
def test_an_undefined_sample_at_the_point_is_named(q):
    # t = x is f0 of the HEAD centring: every head sample becomes f - nan
    x, h = 2.0, 1e-4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureDomainError) as exc:
            richardson(_undefined_at(x, h / 4, [0]), q, x, 0.0, h0=h, levels=3)
    assert str(exc.value) == f"integrand undefined at sample node t={x}"


@pytest.mark.parametrize("q", [-0.5, 171.5])
def test_an_undefined_sample_wins_over_an_overflow(q):
    # q = -0.5: the first block sums past the largest double before the bad
    # node's block; q = 171.5: the scale step^-q overflows
    fine = 3 * BLOCK + 10
    x, h = 2.0, 2.0 / fine
    first = 2 * BLOCK + 5
    f = _undefined_at(x, h, [first, first + 1], elsewhere=lambda t: np.full(np.shape(t), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureDomainError) as exc:
            gl_deriv(f, q, x, 0.0, h=h)
        # the same grid with every sample defined is the overflow
        with pytest.raises(QuadratureDomainError, match=f"GL differintegral of order {q} at step"):
            gl_deriv(lambda t: np.full(np.shape(t), 1e308), q, x, 0.0, h=h)
    assert str(exc.value) == f"integrand undefined at sample node t={x - h * first}"


def test_richardson_peak_memory_is_bounded_on_a_fine_grid():
    # 3 200 001 nodes: the samples are the only full-length array; the
    # weights, f's temporaries and the kernel's buffers are blocks
    ctx = Context.of(("x",))
    f = expr_univariate(parse_expr("1.3*x^2.2", ctx), ctx, "x", (2.0,))
    nodes = 200_000 * 2**4 + 1
    tracemalloc.start()
    try:
        with warnings.catch_warnings():  # the finest extrapolants sit at rounding level
            warnings.simplefilter("ignore", NonConvergenceWarning)
            richardson(f, 0.4, 2.0, 0.0, h0=1e-5, levels=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * nodes + 8 * 2**20


# ---------------------------------------------------------------------------
# coordinate-line helpers


def test_gl_partial_whole_order():
    f = lambda v: v[0] * v[1]
    got = gl_deriv(freeze_all_but(f, 1, (2.0, 3.0)), 1.0, 3.0, 0.0, h=1e-4)
    assert got == pytest.approx(2.0, rel=1e-9)


def test_gl_partial_fractional():
    f = lambda v: v[0] ** 2 * v[1]
    # D_y^0.5 (x^2 y) at (2, 1) = 4 * 2/sqrt(pi)
    got = gl_deriv(freeze_all_but(f, 1, (2.0, 1.0)), 0.5, 1.0, 0.0, h=1e-4)
    assert got == pytest.approx(4.0 * 2.0 / SQRT_PI, rel=1e-3)


def test_richardson_partial_matches_scalar_form():
    f = lambda v: v[0] ** 1.5
    direct = richardson(lambda t: np.asarray(t) ** 1.5, 0.5, 2.0, 0.0, h0=1e-3)
    lifted = richardson(freeze_all_but(f, 0, (2.0,)), 0.5, 2.0, 0.0, h0=1e-3)
    assert lifted.value == direct.value


def test_expr_univariate_slices_along_a_coordinate():
    ctx = Context.of(("x", "y"))
    e = monomial(ctx, 3.0, {0: 2.0, 1: 1.0})
    line = expr_univariate(e, ctx, "y", (2.0, 999.0))
    assert line(np.float64(5.0)) == pytest.approx(60.0, rel=1e-14)


@pytest.mark.parametrize("point", [(2.0,), (2.0, 1.0, 3.0)])
def test_expr_univariate_needs_one_entry_per_coordinate(point):
    ctx = Context.of(("x", "y"))
    e = monomial(ctx, 3.0, {0: 2.0, 1: 1.0})
    with pytest.raises(ValueError, match=f"point has {len(point)} coordinates, context has 2"):
        expr_univariate(e, ctx, "x", point)


def test_expr_univariate_singular_samples_are_nan():
    ctx = Context.of(("x",))
    e = monomial(ctx, 1.0, {0: -0.5})
    line = expr_univariate(e, ctx, "x", (1.0,))
    vals = line(np.array([0.0, 1.0]))
    assert not np.isfinite(vals[0])
    assert vals[1] == pytest.approx(1.0)


def test_constant_exprs_evaluate_on_the_whole_node_array():
    # an Expr that no array coordinate enters gives an array of the nodes'
    # shape, with the values the node-by-node path gave
    ctx = Context.of(("x", "y"))
    nodes = np.linspace(0.0, 2.0, 7)
    for text in ("3", "3*y^2"):
        line = expr_univariate(parse_expr(text, ctx), ctx, "x", (2.0, 1.5))
        vals = line(nodes)
        assert type(vals) is np.ndarray and vals.shape == nodes.shape
        assert vals.tobytes() == np.array([float(line(float(t))) for t in nodes]).tobytes()
    ctx = Context.of(("x",))
    got = richardson(expr_univariate(parse_expr("3", ctx), ctx, "x", (2.0,)), 0.5, 2.0, 0.0,
                     h0=1e-3, levels=3)
    # a callable that returns a scalar is sampled node by node
    want = richardson(lambda t: 3.0, 0.5, 2.0, 0.0, h0=1e-3, levels=3)
    assert (got.value.hex(), got.error_estimate.hex(), got.converged) == \
        (want.value.hex(), want.error_estimate.hex(), want.converged)


def _evaluable_reference(e, ctx, pt):
    """The plain formula expr_evaluable computes: for each term in order,
    c times the product of (x_i - a_i)^p over p != 0, added to a sum that
    starts at the first term (0.0 when there is none).  A sum that no array
    coordinate enters is broadcast to the coordinates' shape."""
    a = np.asarray(ctx.initial_points, dtype=np.float64)
    bases = [np.asarray(pt[i], dtype=np.float64) - a[i] for i in range(ctx.n)]
    total = None
    with np.errstate(all="ignore"):
        for c, exps in zip(e.coeffs.tolist(), e.exponents.tolist()):
            v = np.float64(c)
            for base, p in zip(bases, exps):
                if p != 0.0:
                    v = v * np.power(base, p)
            total = v if total is None else total + v
    if total is None:  # Expr dropped every coefficient
        total = 0.0
    shape = np.broadcast_shapes(*(b.shape for b in bases))
    return np.full(shape, total) if shape and np.ndim(total) == 0 else total


_origins = st.sampled_from([0.0, -0.0, 0.5, -1.25])
# signed zeros, bases below the origin (nan under non-integer powers) and
# above it
_coordinates = st.sampled_from([0.0, -0.0, -0.75, 0.3, 1.0, 2.5, 7.0])
_powers = st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, -0.5, 1.7, -0.3])


@given(st.data(), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_expr_evaluable_is_the_plain_formula_byte_for_byte(data, n):
    origin = data.draw(st.lists(_origins, min_size=n, max_size=n))
    ctx = Context.of([f"x{i}" for i in range(n)], origin)
    terms = data.draw(st.lists(
        st.tuples(st.floats(min_value=-3.0, max_value=3.0).filter(bool),
                  st.lists(_powers, min_size=n, max_size=n)),
        min_size=1, max_size=4))
    e = Expr(np.array([c for c, _ in terms]), np.array([p for _, p in terms]), n)
    f = expr_evaluable(e, ctx)
    # each coordinate a scalar or an array, as freeze_all_but passes them
    size = data.draw(st.integers(min_value=1, max_value=9))
    pt = [data.draw(st.one_of(
        _coordinates,
        st.lists(_coordinates, min_size=size, max_size=size).map(np.array)))
        for _ in range(n)]
    for args in (pt, [np.float64(v) if np.ndim(v) == 0 else v for v in pt]):
        got, want = f(args), _evaluable_reference(e, ctx, args)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_a_scalar_result_for_the_node_array_is_not_taken_as_a_constant():
    # norm and dot reduce the node array to one number but are |t| and t*t
    # on one node: a 0-d result sends sampling node by node
    for reducing, pointwise in ((np.linalg.norm, np.abs), (lambda t: np.dot(t, t), lambda t: t * t)):
        got = richardson(reducing, 0.5, 1.0, 0.0, 1e-3, 3)
        want = richardson(pointwise, 0.5, 1.0, 0.0, 1e-3, 3)
        assert got.value.hex() == want.value.hex()
        assert gl_deriv(reducing, 0.5, 1.0, 0.0, 1e-3).hex() == gl_deriv(pointwise, 0.5, 1.0, 0.0, 1e-3).hex()
