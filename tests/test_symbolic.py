"""Power-product expressions: canonical form, parse/print, eval, derivative."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracforms import (
    BoundarySingularityError,
    Context,
    EvalDomainError,
    Expr,
    ParseError,
    UnknownCoordinateError,
    canonicalize,
    classical_derivative,
    eval_expr,
    exprs_close,
    monomial,
    parse_expr,
    print_expr,
)
from fracforms import symbolic, tolerances
from fracforms.forms import DiffFactor, Form, WedgeWord, frac_exterior_deriv, parse_form, wedge
from fracforms.rl import _whole_order_factor, power_rule_map, rl_deriv, rl_integ
from fracforms.specialfn import gamma_ratio, snap_int
from fracforms.tolerances import COEFF_DROP, EXP_TOL

X = Context.of(("x",))
XY = Context.of(("x", "y"))


def _term(c, exps):
    """One term as a (coefficient, exponent tuple) pair of floats.  A value
    that is not finite raises as canonicalize does, so the references below
    raise wherever the term-tuple code they port did."""
    c, exps = float(c), tuple(float(p) for p in exps)
    if not math.isfinite(c):
        raise ValueError("term coefficient must be finite")
    if not all(map(math.isfinite, exps)):
        raise ValueError("term exponent must be finite")
    return c, exps


def _terms(e):
    """The terms of ``e`` as (c, exps) pairs, in order."""
    return [_term(c, p) for c, p in zip(e.coeffs.tolist(), e.exponents.tolist())]


def _raw(terms, n):
    """The (c, exps) pairs ``terms`` as a coefficient vector and an exponent
    matrix, row for row, unmerged."""
    return (np.array([c for c, _ in terms], dtype=np.float64),
            np.array([p for _, p in terms], dtype=np.float64).reshape(len(terms), n))


def _expr(terms, n):
    """The (c, exps) pairs ``terms`` through the public constructor, which
    merges them."""
    return Expr(*_raw(terms, n), n)


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_merges_equal_exponents():
    e = canonicalize(_expr([(1.0, (0.5,)), (2.0, (0.5,))], 1))
    assert _terms(e) == [(3.0, (0.5,))]


def test_canonicalize_merges_within_exponent_tolerance():
    e = canonicalize(_expr([(1.0, (0.5,)), (2.0, (0.5 + 1e-10,))], 1))
    assert len(_terms(e)) == 1
    assert _terms(e)[0][0] == 3.0


def test_canonicalize_keeps_separated_exponents():
    e = canonicalize(_expr([(1.0, (0.3,)), (1.0, (0.7,))], 1))
    assert len(_terms(e)) == 2


def test_canonicalize_drops_tiny_coefficients():
    e = canonicalize(_expr([(1e-13, (1.0,))], 1))
    assert _terms(e) == []


def test_canonicalize_cancellation_gives_zero():
    e = canonicalize(_expr([(1.0, (1.0,)), (-1.0, (1.0,))], 1))
    assert _terms(e) == []


def test_canonicalize_orders_terms_deterministically():
    a = canonicalize(_expr([(2.0, (1.0, 0.0)), (-3.0, (0.0, 0.5))], 2))
    b = canonicalize(_expr([(-3.0, (0.0, 0.5)), (2.0, (1.0, 0.0))], 2))
    assert a == b


def test_canonicalize_idempotent():
    e = canonicalize(_expr([(1.0, (0.5,)), (2.0, (0.5 + 1e-10,))], 1))
    assert canonicalize(e) == e


# ---------------------------------------------------------------------------
# the array core against term-by-term references
#
# The references below are the dict-bucket canonicalize and the double loops
# that held expressions as tuples of validated terms, read here as (c, exps)
# pairs through _term; the array core must reproduce them bit for bit
# (compared as float.hex, so -0.0 and 0.0 differ).


def _ref_key(p):
    """The merge key written out: p * 1e9 rounded half to even, over 1e9."""
    y = p * 1e9
    return (round(y) if abs(y) < 2.0 ** 52 else y) / 1e9


def _ref_canonicalize(terms, n):
    buckets = {}
    for c, t_exps in terms:
        exps = tuple(0.0 if abs(p) <= EXP_TOL else p for p in t_exps)
        key = tuple(_ref_key(p) for p in exps)
        if key in buckets:
            slot = buckets[key]
            slot[0] = tuple(
                p if abs(p - k) <= abs(old - k) else old
                for old, p, k in zip(slot[0], exps, key)
            )
            slot[1] += c
        else:
            buckets[key] = [exps, c]
    return [(c, exps) for _, (exps, c) in sorted(buckets.items()) if abs(c) >= COEFF_DROP]


def _ref_power_rule(terms, n, coord, q, extra=()):
    k = snap_int(q)
    if k is not None and k >= 0 and not extra:
        return _ref_classical_derivative(terms, n, coord, k)
    out = []
    for c, t_exps in terms:
        p = t_exps[coord]
        if k is not None and not extra:
            factor = _whole_order_factor(p, k)
        else:
            factor = gamma_ratio((p + 1.0,), (p - q + 1.0, *extra))
        if factor == 0.0:
            continue
        exps = list(t_exps)
        exps[coord] = p - q
        out.append(_term(c * factor, exps))
    return _ref_canonicalize(out, n)


def _ref_product(a_terms, b_terms, n):
    prods = [_term(c * d, [x + y for x, y in zip(s, t)])
             for c, s in a_terms for d, t in b_terms]
    return _ref_canonicalize(prods, n)


def _bits(pairs):
    return [(float(c).hex(), tuple(float(p).hex() for p in exps)) for c, exps in pairs]


def _arr_bits(coeffs, exponents):
    return _bits(zip(coeffs.tolist(), exponents.tolist()))


# exponents within 1e-9 of each other and of 0, with exact ties (+-2^-32)
# for the closest-exponent rule, and -0.0
near_exps = st.builds(
    lambda base, off: base + off,
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.5, 0.25, 1.5, 2.0]),
    st.sampled_from([0.0, -0.0, 4e-10, -6e-10, 1e-9, -1e-9, 1.2e-9, 2.0 ** -32, -(2.0 ** -32),
                     2.0 ** -31, 5e-10, -5e-10, 3e-12]),
)
near_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 1e-13, -1e-13, 1e-12, -0.0, 0.0, 3.0, 0.1, -0.1]),
    st.floats(min_value=-5.0, max_value=5.0),
)


@st.composite
def term_lists(draw, n=2, max_size=40):
    k = draw(st.integers(min_value=0, max_value=max_size))
    terms = [_term(draw(near_coeffs), [draw(near_exps) for _ in range(n)])
             for _ in range(k)]
    # exact cancellations: repeat some terms with the opposite sign
    for c, exps in draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []:
        terms.append(_term(-c, exps))
    return draw(st.permutations(terms))


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(2.0 ** -10)  # 0.0009765625: an exact decimal tie at the ninth digit
@example(0.1234567895)  # a decimal tie at the tenth digit
@example(-2.5e-9)
@example(2.0 ** 20 + 0.25)
@example(2.0 ** 52 / 1e9)  # the product is 2^52: already whole
@example(1e300)  # the product overflows to inf
@example(-1e300)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vectorized_key_matches_key(p):
    # equal as floats: a zero key may differ in sign
    assert tolerances.keys(np.array([p, -p])).tolist() == [tolerances.key(p), tolerances.key(-p)]


def test_key_rounds_the_scaled_exponent_half_to_even():
    # 0.1234567895 * 1e9 is the double 123456789.5, a tie that goes to the
    # even 123456790; rounding the decimal value at nine digits would keep
    # 0.123456789
    assert tolerances.key(0.1234567895) == 0.12345679
    assert tolerances.keys(np.array([0.1234567895])).tolist() == [0.12345679]
    assert tolerances.key(2.5e-9) == 2e-9 and tolerances.key(3.5e-9) == 4e-9
    assert tolerances.key(1e300) == math.inf and tolerances.key(-1e300) == -math.inf


@given(term_lists())
@example([_term(1.0, (0.5 + 2.0 ** -32, 1.0)),   # a tie for the closest exponent:
          _term(2.0, (0.5 - 2.0 ** -32, 1.0)),   # the later one is kept
          _term(4.0, (0.5 + 4e-10, -0.0))])
@example([_term(c, (1.0, 0.5)) for c in (1e-3, 1.0, -1.0, 1e-3)])  # order of the sum
@settings(max_examples=200, deadline=None)
def test_canonicalize_bit_identical_to_dict_reference(terms):
    want = _bits(_ref_canonicalize(terms, 2))
    got = canonicalize(_expr(terms, 2))
    assert _arr_bits(got.coeffs, got.exponents) == want
    # the public constructor and make take the same merge
    made = Expr.make(terms, 2)
    assert _arr_bits(made.coeffs, made.exponents) == want
    # both merges, whatever the size, on the raw rows against the same reference
    for merge in (symbolic._merge_loop, symbolic._merge_arrays):
        if terms:
            assert _arr_bits(*merge(*_raw(terms, 2))) == want


@given(term_lists(n=3, max_size=12), term_lists(n=3, max_size=12))
@settings(max_examples=100, deadline=None)
def test_product_bit_identical_to_double_loop(a_terms, b_terms):
    a = canonicalize(_expr(a_terms, 3))
    b = canonicalize(_expr(b_terms, 3))
    got = a * b
    assert _arr_bits(got.coeffs, got.exponents) == _bits(_ref_product(_terms(a), _terms(b), 3))


@given(term_lists(max_size=30), st.sampled_from([0.5, 1.0, 2.0, -1.0, 0.3, -0.5, 1.0 + 4e-10]),
       st.sampled_from([(), (1.5,), (2.0, 0.7)]), st.integers(min_value=0, max_value=1))
# shifts after which the arrays are no longer canonical:
@example([_term(1.0, (1.5 + 1e-10, 0.0)), _term(2.0, (1.5 + 6e-10, 0.0))],
         1.0 + 4e-10, (1.5,), 0)  # two keys tie, so the terms merge
@example([_term(1.0, (0.5 + 4e-10, 1.0)), _term(2.0, (0.5 - 4e-10, 2.0))],
         0.3 + 5e-10, (), 0)  # one key splits, so the terms swap
@example([_term(1.0, (1.0, 0.5 + 4e-10)), _term(1.0, (1.0, 1.5))],
         0.5, (), 1)  # p - q snaps to 0
@example([_term(2e-12, (2.0, 0.0)), _term(1.0, (1.0, 0.0))],
         -1.0, (), 0)  # a coefficient drops
@settings(max_examples=150, deadline=None)
def test_power_rule_map_bit_identical_to_term_loop(terms, q, extra, coord):
    # keep the operator's domain p > -1 on the differentiated coordinate
    terms = [(c, exps) for c, exps in terms if exps[coord] > -0.9]
    e = canonicalize(_expr(terms, 2))
    got = power_rule_map(e, coord, q, XY, extra_denominators=extra)
    assert _arr_bits(got.coeffs, got.exponents) == _bits(_ref_power_rule(_terms(e), 2, coord, q,
                                                                         extra))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_power_rule_map_overflowing_coefficient_raises():
    e = Expr.make([(1e308, (3.0,)), (1.0, (2.0,))], 1)
    with pytest.raises(ValueError, match=r"^D\^2 along x: a coefficient overflows a double$"):
        power_rule_map(e, 0, 2.0, X)


def _ref_shift(terms, n, coord, delta):
    out = []
    for c, t_exps in terms:
        exps = list(t_exps)
        exps[coord] += delta
        out.append(_term(c, exps))
    return _ref_canonicalize(out, n)


def _ref_classical_derivative(terms, n, coord, order):
    out = []
    for c, t_exps in terms:
        p = t_exps[coord]
        if any(abs(p - step) <= EXP_TOL for step in range(order)):
            continue
        for step in range(order):
            c *= p - step
        exps = list(t_exps)
        exps[coord] = p - order
        out.append(_term(c, exps))
    return _ref_canonicalize(out, n)


def _outcome(f, *args):
    """The bits of the terms ``f`` returns, or the message of its ValueError."""
    try:
        got = f(*args)
    except ValueError as exc:
        return str(exc)
    return _arr_bits(got.coeffs, got.exponents) if isinstance(got, Expr) else _bits(got)


@given(term_lists(max_size=30),
       st.sampled_from([0.5, -1.0, 0.3, 2.0, -0.5 - 4e-10, 1e-10, -5e-10, 6e-10, 0.0]),
       st.integers(min_value=0, max_value=1))
@example([_term(1.0, (0.5 + 1e-10, 0.0)), _term(2.0, (0.5 + 6e-10, 0.0))], -4e-10, 0)  # tie
@example([_term(1.0, (0.5 + 4e-10, 1.0)), _term(2.0, (0.5 - 4e-10, 2.0))], -5e-10, 0)  # split
@example([_term(1.0, (0.5 + 4e-10, 1.0)), _term(1.0, (2.0, 1.0))], -0.5, 0)  # snap
@example([_term(1.0, (1e308, 0.0)), _term(1.0, (2.0, 0.0))], 1e308, 0)  # exponent overflow
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_shift_exponent_bit_identical_to_term_loop(terms, delta, coord):
    e = canonicalize(_expr(terms, 2))
    assert (_outcome(symbolic.shift_exponent, e, coord, delta)
            == _outcome(_ref_shift, _terms(e), 2, coord, delta))


@given(term_lists(max_size=30), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=1))
@example([_term(1.0, (1.0 + 4e-10, 0.5)), _term(1.0, (3.0, 0.5))], 1, 0)  # snap
@example([_term(2e-12, (0.25, 0.0)), _term(1.0, (2.0, 0.0))], 1, 0)  # drop
@example([_term(1e308, (3.0, 0.0)), _term(1.0, (2.0, 0.0))], 1, 0)  # coefficient overflow
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_classical_derivative_bit_identical_to_term_loop(terms, order, coord):
    e = canonicalize(_expr(terms, 2))
    assert (_outcome(classical_derivative, e, coord, order)
            == _outcome(_ref_classical_derivative, _terms(e), 2, coord, order))


@pytest.mark.parametrize("order", [63, 64, 128, 200, 1000])
@pytest.mark.parametrize("terms", [
    [],
    [_term(1.0, (2.0, 0.5)), _term(-3.0, (3.0, 1.0))],  # every term dies
    [_term(1.0, (0.5, 0.5))],  # live and finite at order 64, inf by 128
    [_term(1.0, (2.0, 0.5)), _term(-3.0, (2.5, 1.0)), _term(2.0, (70.0, 0.0))],
    [_term(1e-6, (150.5, 0.0)), _term(1.0, (100.0, 1.0))],  # past the top exponent late
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_classical_derivative_that_stops_early_is_bit_identical_to_term_loop(terms, order):
    # past the largest exponent the loop stops once every live coefficient is inf
    e = canonicalize(_expr(terms, 2))
    assert (_outcome(classical_derivative, e, 0, order)
            == _outcome(_ref_classical_derivative, _terms(e), 2, 0, order))


def test_rl_deriv_of_a_canonical_expression_runs_no_merge(monkeypatch):
    ctx = Context.of(("x", "y", "z"))
    grid = (0.25, 0.5, 1.0, 1.75, 2.5, 3.0)
    e = Expr.make([(1.0 + i / 7.0, exps)
                   for i, exps in enumerate(itertools.product(grid, repeat=3))], 3)
    assert len(e.coeffs) == 216
    cases = [(coord, q) for coord in range(3) for q in (0.5, 1.0, 2.0, -0.5)]
    want = [_bits(_ref_power_rule(_terms(e), 3, coord, q)) for coord, q in cases]

    def merge(coeffs, exponents):
        raise AssertionError("the power rule merged a shifted canonical expression")

    monkeypatch.setattr(symbolic, "_merge_arrays", merge)
    monkeypatch.setattr(symbolic, "_merge_loop", merge)
    for (coord, q), bits in zip(cases, want):
        got = rl_deriv(e, coord, q, ctx)
        assert _arr_bits(got.coeffs, got.exponents) == bits


def _padded(terms, pad, column):
    """``terms`` plus ``pad`` rows whose keys no drawn term has; with seven a
    side, a sum holds more than _SMALL_MERGE rows and takes the two-run merge."""
    return terms + [_term(1.0 + k, (7.0 + k, column)) for k in range(pad)]


def _general_merge(a, b):
    """``_merge_arrays`` on the rows of a followed by the rows of b: the bits
    of its terms, or the message of its ValueError."""
    try:
        return _arr_bits(*symbolic._merge_arrays(np.concatenate((a.coeffs, b.coeffs)),
                                                 np.concatenate((a.exponents, b.exponents))))
    except ValueError as exc:
        return str(exc)


@given(term_lists(max_size=30), term_lists(max_size=30), st.integers(min_value=0, max_value=7))
# exponents within EXP_TOL on either side of a key: the closer one is kept
@example([_term(1.0, (0.5 + 4e-10, 1.0))], [_term(2.0, (0.5 - 6e-10, 1.0))], 7)
@example([_term(1.0, (0.5 - 4e-10, 1.0))], [_term(2.0, (0.5 + 1e-10, 1.0))], 7)
# keys of a decimal tie at the ninth digit and of |p| >= 2^20, on both merge paths
@example([_term(1.0, (2.0 ** -10, 2.0 ** 20 + 0.25)), _term(1.0, (2.0 ** -10 + 1e-12, 1.0))],
         [_term(3.0, (2.0 ** -10, 2.0 ** 20 + 0.25)), _term(1.0, (2.0 ** -10 - 1e-12, 1.0))], 7)
@example([_term(1.5, (1.0, 0.5))], [_term(-1.5, (1.0, 0.5))], 7)  # exact cancellation
@example([_term(1.0, (2.0, 0.0))], [_term(-1.0 + 5e-13, (2.0, 0.0))], 7)  # below COEFF_DROP
@example([_term(1.0, (0.5 + 2.0 ** -32, 1.0))],  # a tie in distance to the key:
         [_term(2.0, (0.5 - 2.0 ** -32, 1.0))], 7)  # b's exponent is kept
@example([_term(1e308, (1.0, 1.0))], [_term(1e308, (1.0, 1.0))], 7)  # overflow to inf
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sum_of_canonical_expressions_matches_general_merge(a_terms, b_terms, pad):
    a = canonicalize(_expr(_padded(a_terms, pad, 9.0), 2))
    b = canonicalize(_expr(_padded(b_terms, pad, 10.0), 2))
    assert _outcome(lambda: a + b) == _general_merge(a, b)
    assert _outcome(lambda: a - b) == _general_merge(a, -b)


# offsets that keep an exponent in its key's bucket, on either side of the key
_IN_BUCKET = [0.0, 1e-10, -1e-10, 4e-10, -4e-10, 2.0 ** -32, -(2.0 ** -32), 3e-12]


@st.composite
def aligned_sums(draw):
    """A canonical a of at least seven rows, and a b whose rows are a's with
    each exponent moved within its key's bucket and a coefficient drawn
    against a's: so a + b merges two runs with the same keys row by row,
    unless b drops a row."""
    terms = _padded(draw(term_lists(max_size=20)), 7, 9.0)
    if draw(st.booleans()):
        terms.append(_term(1e308, (11.0, 11.0)))
    a = canonicalize(_expr(terms, 2))
    rows = []
    for c, exps in _terms(a):
        coeff = draw(st.one_of(
            st.just(-c),  # cancels exactly
            # a sum below COEFF_DROP, or just above it
            st.sampled_from([5e-13, -5e-13, 2e-12]).map(lambda s: -c + s),
            st.just(c),  # overflows beside 1e308
            st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: abs(x) >= COEFF_DROP),
        ))
        rows.append(_term(coeff, [tolerances.key(p) + draw(st.sampled_from(_IN_BUCKET))
                                  for p in exps]))
    return a, canonicalize(_expr(rows, 2))


def _aligned_example(a_coeffs, b_coeffs):
    """Two expressions with the same eight keys and the given coefficients."""
    exps = [(0.5 * i, 1.0) for i in range(8)]
    moved = [(p + 4e-10, q - 4e-10) for p, q in exps]
    return (canonicalize(_expr(list(zip(a_coeffs, exps)), 2)),
            canonicalize(_expr(list(zip(b_coeffs, moved)), 2)))


@given(aligned_sums())
@example(_aligned_example([1.5] * 8, [-1.5] * 8))  # cancels to the empty expression
@example(_aligned_example([1.0] * 8, [-1.0 + 5e-13] * 4 + [2.0] * 4))  # sums below COEFF_DROP
@example(_aligned_example([1e308] + [1.0] * 7, [1e308] + [1.0] * 7))  # a sum overflows
@settings(max_examples=200, deadline=None)
def test_sum_of_aligned_expressions_matches_general_merge(ab):
    a, b = ab
    assert _outcome(lambda: a + b) == _general_merge(a, b)
    assert _outcome(lambda: a - b) == _general_merge(a, -b)


def test_cross_partials_of_a_grid_sum_without_sorting(monkeypatch):
    ctx = Context.of(("x", "y", "z"))
    grid = (0.25, 0.5, 1.0, 1.75, 2.5, 3.0)
    f = Expr.make([(1.0 + i / 7.0, exps)
                   for i, exps in enumerate(itertools.product(grid, repeat=3))], 3)
    assert len(f.coeffs) == 216
    cases = []
    for q in (0.5, 1.5):
        d12 = rl_deriv(rl_deriv(f, 1, q, ctx), 0, q, ctx)
        d21 = rl_deriv(rl_deriv(f, 0, q, ctx), 1, q, ctx)
        assert len(d12.coeffs) == len(d21.coeffs) > symbolic._SMALL_MERGE
        cases.append((d12, d21, _general_merge(d12, -d21)))

    def sort(ks):
        raise AssertionError("a sum of aligned runs sorted its rows")

    monkeypatch.setattr(symbolic, "_sort_rows", sort)
    for d12, d21, want in cases:
        assert _outcome(lambda: d12 - d21) == want


@given(term_lists())
@settings(max_examples=50, deadline=None)
def test_canonicalize_returns_a_canonical_expression_unchanged(terms):
    e = canonicalize(_expr(terms, 2))
    assert canonicalize(e) is e
    assert canonicalize(canonicalize(_expr(terms, 2))) == e


def _text(terms, ctx, words=("",)):
    """The (c, exps) pairs as one literal, row for row, unmerged; term i
    carries the wedge ``words[i % len(words)]``."""
    return "".join(symbolic.term_text(c, exps, ctx, None, i == 0, words[i % len(words)])
                   for i, (c, exps) in enumerate(terms)) or "0"


@given(term_lists(max_size=20), term_lists(max_size=12), st.integers(0, 2 ** 24 - 1))
@example([_term(2.0, (1.0, -0.0)), _term(1.0, (0.5, 1.0)), _term(3.0, (1.0, 0.0))],
         [_term(1.0, (0.5 + 4e-10, -0.0))], 0b101)  # out of order, a duplicate key, -0.0
@settings(max_examples=100, deadline=None)
def test_every_operation_returns_canonical_arrays(a_terms, b_terms, mask_bits):
    # the unchecked constructor trusts its operands to be canonical; each
    # public operation must therefore hand back arrays the merge would keep
    a, b = _expr(a_terms, 2), Expr.make(b_terms, 2)
    mask = np.array([mask_bits >> i & 1 for i in range(len(a.coeffs))], dtype=bool)
    outs = [a, b, -a, a * 0.5, a * -3.0, a * 1e-12, a.take(mask), a.pow(2.0),
            parse_expr(_text(a_terms, XY), XY), rl_integ(a, 0, 0.5, XY),
            rl_integ(b, 1, 1.0, XY)]
    if len(b.coeffs) == 1 and b.coeffs[0] > 0.0:
        outs += [b.pow(0.5), b.pow(-1.5)]
    for coord in (0, 1):
        try:
            outs.append(symbolic.restrict_at_initial(a, coord, XY))
        except BoundarySingularityError:
            pass
    dx, dy = (WedgeWord((DiffFactor(j, 0.5),)) for j in (0, 1))
    one = Form(1, 0.5, {dx: a, dy: b})
    forms = [frac_exterior_deriv(a, 0.5, XY), frac_exterior_deriv(one, 0.5, XY),
             wedge(one, one), wedge(Form.scalar(b), one),
             parse_form(_text(a_terms + b_terms, XY, ("d(x,0.5)", "d(y,0.5)")), XY)]
    outs += [c for f in forms for c in f.terms.values()]
    for e in outs:
        assert _arr_bits(e.coeffs, e.exponents) == _bits(_ref_canonicalize(_terms(e), e.n))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_canonicalize_overflowing_merge_raises():
    # the constructor merges, so the overflow raises as the expression is built
    with pytest.raises(ValueError, match="coefficient must be finite"):
        _expr([(1e308, (1.0,)), (1e308, (1.0,))], 1)
    with pytest.raises(ValueError, match="coefficient must be finite"):
        monomial(X, 1e200, {0: 1.0}) * monomial(X, 1e200, {0: 1.0})


def test_expr_constructor_checks_array_types_and_shapes():
    with pytest.raises(TypeError):
        Expr([1.0], [[0.0]], 1)
    with pytest.raises(TypeError):
        Expr(np.array([1]), np.array([[0.0]]), 1)
    with pytest.raises(ValueError):
        Expr(np.array([2.0]), np.array([[1.0, 3.0]]), 1)
    with pytest.raises(ValueError):
        Expr(np.array([2.0, 1.0]), np.array([[1.0]]), 1)
    with pytest.raises(ValueError):
        Expr(np.array([[2.0]]), np.array([[1.0]]), 1)


def test_terms_view_matches_arrays():
    e = parse_expr("2*x^0.5*y - 3*y^2 + 1", XY)
    assert e.coeffs.shape == (3,) and e.exponents.shape == (3, 2)
    assert not e.coeffs.flags.writeable and not e.exponents.flags.writeable
    # what the benchmark harness reads: a length and .coeff/.exponents items
    for f in (e, Expr.zero(2), _expr([(2.0, (1.0, -0.0)), (2.0, (1.0, 0.0))], 2)):
        assert len(f.terms) == len(f.coeffs)
        items = [(t.coeff, t.exponents) for t in f.terms]
        assert items == list(zip(f.coeffs.tolist(), map(tuple, f.exponents.tolist())))
        assert all(type(c) is float and type(p) is tuple for c, p in items)


@given(term_lists())
@example([_term(0.0, (1.0, 0.0)), _term(1.0, (-0.0, 2.0))])
@settings(max_examples=100, deadline=None)
def test_equal_expressions_hash_equal(terms):
    # flipping the sign of every zero keeps an expression equal
    flipped = [(-c if c == 0.0 else c, [-p if p == 0.0 else p for p in exps])
               for c, exps in terms]
    a, b = _expr(terms, 2), _expr(flipped, 2)
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for e in (parse_expr("2*x^0.5*y - 3*y^2 + 1", XY), Expr.zero(2),
              _expr([(1.0, (0.5, 0.0)), (2.0, (0.5, -0.0))], 2)):
        copy = pickle.loads(pickle.dumps(e, protocol))
        assert copy == e and copy.n == e.n
        assert not copy.coeffs.flags.writeable and not copy.exponents.flags.writeable
        assert _arr_bits(copy.coeffs, copy.exponents) == _arr_bits(e.coeffs, e.exponents)


# ---------------------------------------------------------------------------
# parse / print


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x", "x"),
        ("3*x^2", "3*x^2"),
        ("x^0.5*y^-0.5", "x^0.5*y^-0.5"),
        ("2*x + 3*y", "3*y + 2*x"),
        ("x - y", "-1*y + x"),
        ("-1*x^2", "-1*x^2"),
        ("5", "5"),
        ("0", "0"),
        ("  x ^ 2  ", "x^2"),
        ("1.5e-2*x", "0.015*x"),
    ],
)
def test_parse_then_print(text, expected):
    assert print_expr(parse_expr(text, XY), XY) == expected


def test_print_trims_digits():
    e = monomial(X, 0.5641895835477563, {0: -0.5})
    assert print_expr(e, X, digits=10) == "0.5641895835*x^-0.5"
    assert print_expr(e, X) == "0.5641895835477563*x^-0.5"


def test_print_integer_coefficients_bare():
    assert print_expr(monomial(X, 3.0, {0: 2.0}), X) == "3*x^2"
    assert print_expr(monomial(X, -1.0, {}), X) == "-1"


def test_print_uses_repr_for_tiny_and_huge_numbers():
    assert symbolic.fmt_number(5e-324) == "5e-324"
    assert symbolic.fmt_number(1e16) == "1e+16"
    assert symbolic.fmt_number(-2e-3) == "-0.002"
    assert symbolic.fmt_number(2.5e-7) == "2.5e-07"
    assert symbolic.fmt_number(9007199254740991.0) == "9007199254740991"
    assert print_expr(monomial(X, 3e300, {0: 1.0}), X) == "3e+300*x"
    e = monomial(X, 2.0, {0: 1e-7})
    assert print_expr(e, X) == "2*x^1e-07"
    assert parse_expr(print_expr(e, X), X) == e


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(-1.7976931348623157e308)
@example(1e16)
@example(-0.0)
@settings(max_examples=500, deadline=None)
def test_fmt_number_reads_back_to_the_same_double(x):
    coeffs, rows, _ = symbolic.scan_terms(symbolic.fmt_number(x), X.index, 1)
    assert coeffs == [x] and rows == [[0.0]]


@pytest.mark.parametrize(
    "text",
    ["", "x +", "^2", "x^^2", "3*", "x y", "(x", "x^2.5.3", "-x^2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_expr(text, X)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("2*x + ^", X)
    assert "6" in str(exc.value)


def test_parse_unknown_coordinate():
    with pytest.raises(UnknownCoordinateError):
        parse_expr("x + z", XY)


def test_parse_merges_repeated_factors():
    # x*x^0.5 collapses to a single power
    e = parse_expr("x*x^0.5", X)
    assert _terms(e) == [(1.0, (1.5,))]


coeffs = st.floats(min_value=-50.0, max_value=50.0).filter(lambda c: abs(c) > 1e-6)
exps = st.floats(min_value=-3.0, max_value=6.0)


@st.composite
def exprs(draw, n=2):
    k = draw(st.integers(min_value=0, max_value=4))
    terms = [_term(draw(coeffs), [draw(exps) for _ in range(n)]) for _ in range(k)]
    return canonicalize(_expr(terms, n))


@given(exprs())
@example(Expr.make([(2.0, (1.0000000001, 0.0))], 2))  # within the key step of 1, not 1
@settings(max_examples=500, deadline=None)
def test_print_parse_round_trip(e):
    assert parse_expr(print_expr(e, XY), XY) == e


# ---------------------------------------------------------------------------
# evaluation


def test_eval_simple():
    e = parse_expr("3*x^2*y^-0.5", XY)
    assert eval_expr(e, XY, (2.0, 4.0)) == pytest.approx(6.0, rel=1e-14)


def test_eval_constant_ignores_point():
    e = parse_expr("7", XY)
    assert eval_expr(e, XY, (123.0, -9.0)) == 7.0


def test_eval_zero_expr():
    assert eval_expr(Expr.zero(2), XY, (1.0, 1.0)) == 0.0


def test_eval_respects_origin_shift():
    ctx = Context.of(("x",), origin=(1.0,))
    e = parse_expr("x^2", ctx)
    # powers are taken in (x - a)
    assert eval_expr(e, ctx, (3.0,)) == pytest.approx(4.0, rel=1e-14)


def test_eval_negative_base_fractional_power_rejected():
    e = parse_expr("x^0.5", X)
    with pytest.raises(EvalDomainError):
        eval_expr(e, X, (-1.0,))


def test_eval_zero_base_negative_power_rejected():
    e = parse_expr("x^-1", X)
    with pytest.raises(EvalDomainError):
        eval_expr(e, X, (0.0,))


def test_eval_zero_base_whole_power_is_zero():
    assert eval_expr(parse_expr("x^2", X), X, (0.0,)) == 0.0


def test_eval_zero_base_fractional_power_rejected():
    # non-integer exponents need a strictly positive base
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("x^0.5", X), X, (0.0,))


@given(exprs(), exprs(), st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_eval_additivity(e1, e2, px, py):
    total = canonicalize(_expr(_terms(e1) + _terms(e2), 2))
    lhs = eval_expr(total, XY, (px, py))
    rhs = eval_expr(e1, XY, (px, py)) + eval_expr(e2, XY, (px, py))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# classical derivative


def test_classical_derivative_power_rule():
    e = parse_expr("x^3", X)
    assert print_expr(classical_derivative(e, 0), X) == "3*x^2"


def test_classical_derivative_constant_is_zero():
    assert _terms(classical_derivative(parse_expr("4", X), 0)) == []


def test_classical_derivative_higher_order():
    e = parse_expr("x^4", X)
    assert print_expr(classical_derivative(e, 0, 2), X) == "12*x^2"


def test_classical_derivative_partial():
    e = parse_expr("x^2*y^3", XY)
    assert exprs_close(classical_derivative(e, 1), parse_expr("3*x^2*y^2", XY))


def test_classical_derivative_fractional_exponent():
    e = parse_expr("x^0.5", X)
    d = classical_derivative(e, 0)
    assert exprs_close(d, parse_expr("0.5*x^-0.5", X))


@given(exprs(n=1), st.floats(min_value=0.5, max_value=2.5))
@settings(max_examples=150, deadline=None)
def test_classical_derivative_matches_central_difference(e, x):
    h = 1e-5
    try:
        want = (eval_expr(e, X, (x + h,)) - eval_expr(e, X, (x - h,))) / (2.0 * h)
        got = eval_expr(classical_derivative(e, 0), X, (x,))
    except EvalDomainError:
        return
    scale = max(1.0, abs(want), abs(got))
    # central differences carry O(h^2) truncation plus cancellation noise
    assert abs(got - want) <= 1e-6 * scale + 1e-4 * h * h * scale


# ---------------------------------------------------------------------------
# helpers on Expr


def test_expr_pow_scales_exponents():
    base = parse_expr("x*y", XY)
    assert exprs_close(base.pow(0.5), parse_expr("x^0.5*y^0.5", XY))


def test_expr_pow_expands_whole_powers_of_sums():
    got = parse_expr("x + y", XY).pow(2.0)
    assert exprs_close(got, parse_expr("x^2 + 2*x*y + y^2", XY))


def test_expr_pow_fractional_needs_single_term():
    from fracforms import UnsupportedError

    with pytest.raises(UnsupportedError):
        parse_expr("x + y", XY).pow(0.5)


def test_expr_pow_fractional_needs_a_positive_coefficient():
    from fracforms import UnsupportedError

    with pytest.raises(UnsupportedError, match="needs a positive coefficient"):
        parse_expr("-2*x", X).pow(0.5)


def test_expr_pow_negative_whole_power_of_a_monomial():
    # any coefficient sign: (-2 x^0.5)^-2 = 0.25 x^-1
    got = parse_expr("-2*x^0.5", X).pow(-2.0)
    assert got == Expr.make([(0.25, (-1.0,))], 1)


@pytest.mark.parametrize("names, origin, message", [
    (("x", "x"), (0.0, 0.0), "coordinate names must be distinct"),
    ((), (), "a context needs at least one coordinate"),
    (("x", "y"), (0.0,), "one initial point per coordinate"),
    (("x", "2y"), (0.0, 0.0), "bad coordinate name '2y'"),
])
def test_context_rejects_bad_coordinates(names, origin, message):
    with pytest.raises(ValueError) as exc:
        Context(names, origin)
    assert str(exc.value) == message


def test_context_of_reads_comma_separated_names():
    ctx = Context.of(" x , y,, ", origin=(1, 2))
    assert ctx.names == ("x", "y") and ctx.initial_points == (1.0, 2.0)
    assert Context.of("x,y") == Context(("x", "y"), (0.0, 0.0))


def test_eval_rejects_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match="point length must match the context"):
        eval_expr(parse_expr("x", XY), XY, (1.0,))


@pytest.mark.parametrize("order", [0.5, -1])
def test_classical_derivative_needs_a_whole_order(order):
    with pytest.raises(ValueError, match="must be a whole number >= 0"):
        classical_derivative(parse_expr("x^2", X), 0, order)


def test_monomial_by_name():
    assert monomial(XY, 2.0, {"y": 1.5}) == monomial(XY, 2.0, {1: 1.5})


def test_context_lookup_and_origin_default():
    assert XY.index("y") == 1
    assert XY.initial_points == (0.0, 0.0)
    with pytest.raises(UnknownCoordinateError):
        XY.index("z")


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_a_constant_that_is_not_finite_raises(c):
    with pytest.raises(ValueError, match="^term coefficient must be finite$"):
        Expr.constant(c, 2)


@pytest.mark.parametrize("c", [1e-13, -1e-13, 0.0, -0.0])
def test_a_constant_below_the_drop_is_zero(c):
    e = Expr.constant(c, 2)
    assert e == Expr.zero(2)
    assert (e.coeffs.shape, e.exponents.shape) == ((0,), (0, 2))
    assert e.coeffs.dtype == e.exponents.dtype == np.float64


@pytest.mark.parametrize("c", [COEFF_DROP, -2.5, 7])
def test_a_constant_is_one_term_of_zero_exponents(c):
    e = Expr.constant(c, 3)
    assert e.coeffs.tobytes() == np.array([float(c)]).tobytes()
    assert e.exponents.tobytes() == np.zeros((1, 3)).tobytes()
    assert not (e.coeffs.flags.writeable or e.exponents.flags.writeable)
