"""Fractional derivative and integral of power-product expressions.

The differintegral of real order q acts term by term through the power rule

    (x - a)^p  ->  gamma(p+1)/gamma(p-q+1) * (x - a)^(p-q),      p > -1,

with negative q meaning integration from the initial point.  A term is
annihilated exactly when p - q + 1 lands on a non-positive integer (the
reciprocal-gamma zero); that is how whole orders reproduce the classical
derivative, kernel basis elements map to zero, and so on.

A whole order k >= 0 is :func:`fracforms.symbolic.classical_derivative`
itself, so its results are bit-identical to it at every such order; a whole
k < 0 takes the exact rising-factorial product.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ExponentDomainError
from .specialfn import gamma_ratio, gen_binomial, positive, rgamma, snap_int, whole_ceil
from .symbolic import (
    Context,
    Expr,
    classical_derivative,
    degree_in,
    eval_expr,
    fmt_number,
    is_polynomial_in,
    is_zero,
    restrict_at_initial,
    shift_column,
    shift_exponent,
)
from .tolerances import EXP_TOL


def _whole_order_factor(p: float, k: int) -> float:
    """gamma(p+1)/gamma(p-k+1) for whole k < 0, as an exact factor product.

    Every factor p + i is positive (p > -1), so once the product overflows it
    stays inf and the ratio is 0.0: the loop stops there, checking every 64
    factors, so any order returns in bounded time."""
    acc = 1.0
    for i in range(1, -k + 1):
        acc *= p + i
        if i & 63 == 0 and acc == math.inf:
            break
    return 1.0 / acc


def power_rule_map(e: Expr, coord: int, q: float, ctx: Context,
                   extra_denominators: tuple[float, ...] = ()) -> Expr:
    """Apply the fractional power rule along ``coord``; shared inner loop.

    ``extra_denominators`` multiplies every coefficient by
    1/prod gamma(d); the coordinate-transform module uses it so that ratios
    like gamma(nu+1)/gamma(nu+1) cancel exactly.  A coefficient that
    overflows a double raises ``ValueError`` naming the order and the
    coordinate ("D^170.5 along x: ...").
    """
    if not math.isfinite(q):
        raise ValueError(f"differintegral order must be finite, got {q}")
    coord = ctx.index(coord)
    p = e.exponents[:, coord]
    # the distinct exponents, ascending; 0.0 and -0.0 count as one (same factor)
    values = sorted(set(p.tolist()))
    if values and values[0] <= -1.0 + EXP_TOL:
        first = next(v for v in p.tolist() if v <= -1.0 + EXP_TOL)
        raise ExponentDomainError(
            f"exponent {first} on {ctx.names[coord]} is outside "
            f"the operator domain (needs p > -1)"
        )
    k = snap_int(q)
    if k is not None and not extra_denominators:
        if k >= 0:
            try:
                return classical_derivative(e, coord, k)
            except ValueError:  # a coefficient overflowed
                raise _overflow(q, ctx.names[coord]) from None

        def factor(x):
            return _whole_order_factor(x, k)
    else:
        def factor(x):
            return gamma_ratio((x + 1.0,), (x - q + 1.0, *extra_denominators))
    table = [factor(v) for v in values]
    # each row's factor; with one distinct exponent every row takes table[0]
    factors = (np.array(table * len(p)) if len(table) == 1
               else np.array(table)[np.array(values).searchsorted(p)])
    coeffs = e.coeffs
    if 0.0 in table:  # reciprocal-gamma zeros annihilate those terms
        keep = factors != 0.0
        e, coeffs, factors = e.take(keep), coeffs[keep], factors[keep]
        values = [v for v, f in zip(values, table) if f != 0.0]
    with np.errstate(over="ignore"):  # an inf coefficient raises in the merge
        coeffs = coeffs * factors
    try:
        return shift_column(e, coord, -q, coeffs, values)
    except ValueError:  # a coefficient overflowed; p - q stays finite
        raise _overflow(q, ctx.names[coord]) from None


def _overflow(q: float, name: str) -> ValueError:
    """The error of a power rule whose coefficient overflows a double."""
    return ValueError(f"D^{fmt_number(q)} along {name}: a coefficient overflows a double")


def rl_deriv(e: Expr, coord: int | str, q: float, ctx: Context) -> Expr:
    """Differintegral of order q along one coordinate (negative q integrates)."""
    return power_rule_map(e, ctx.index(coord), float(q), ctx)


def rl_integ(e: Expr, coord: int | str, q: float, ctx: Context) -> Expr:
    """Fractional integral of order q > 0 from the initial point."""
    q = positive(q, "integral order")
    return power_rule_map(e, ctx.index(coord), -q, ctx)


def compose_residual(e: Expr, coord: int | str, p: float, q: float, ctx: Context) -> Expr:
    """Defect of additivity for order-p after order-q differentiation.

    Returns  D^p D^q e  -  D^(p+q) e  +  sum_{j=1..k} [D^(q-j) e]_{x=a}
    * (x-a)^(-p-j) / gamma(1-p-j),  with k the ceiling whole order of q.
    The sum restores the boundary terms that naive additivity forgets, so the
    result is zero exactly when composition behaves.
    """
    coord = ctx.index(coord)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError(f"composition residual orders must be finite, got p={p}, q={q}")
    if p < 0 or q < 0:
        raise ValueError("composition residual is defined for p >= 0 and q >= 0")
    k = max(1, whole_ceil(q))
    lhs = rl_deriv(rl_deriv(e, coord, q, ctx), coord, p, ctx)
    direct = rl_deriv(e, coord, p + q, ctx)
    result = lhs - direct
    for j in range(1, k + 1):
        boundary = restrict_at_initial(rl_deriv(e, coord, q - j, ctx), coord, ctx)
        if is_zero(boundary):
            continue
        correction = shift_exponent(boundary * rgamma(1.0 - p - j), coord, -p - j)
        result = result + correction
    return result


class SeriesResult(NamedTuple):
    """Product-rule series value plus truncation metadata."""

    expr: Expr
    truncated: bool
    tail_estimate: float


def product_rule_series(f: Expr, g: Expr, coord: int | str, q: float, ctx: Context,
                        K: int | None = None) -> SeriesResult:
    """Leibniz-type series sum_j binom(q, j) * D^(q-j) f * g^(j).

    The series terminates by itself when ``g`` is a polynomial in ``coord``
    (the classical derivatives eventually vanish); otherwise a truncation
    bound ``K`` is required.  ``truncated`` is set when the cut dropped a
    next term whose magnitude at the probe point (a_i + 1) exceeds 1e-9.
    A q within ``EXP_TOL`` of a whole k is taken as k once, on entry, so
    every term's order q - j is whole too.
    """
    coord = ctx.index(coord)
    whole = snap_int(q)
    q = q if whole is None else float(whole)
    if is_polynomial_in(g, coord):
        deg = int(round(degree_in(g, coord)))
        upto = deg if K is None else min(K, deg)
    else:
        if K is None:
            raise ValueError(
                f"g is not a polynomial in {ctx.names[coord]}; pass a truncation bound K"
            )
        upto = K
    total = Expr.zero(f.n)
    for j in range(upto + 1):
        gj = classical_derivative(g, coord, j)
        if is_zero(gj):
            continue
        # fold the binomial into the factorially-growing factor first, so the
        # canonical drop threshold never sees a tiny intermediate coefficient
        total = total + (gen_binomial(q, j) * gj) * rl_deriv(f, coord, q - j, ctx)
    g_next = classical_derivative(g, coord, upto + 1)
    tail = 0.0
    if not is_zero(g_next):
        next_term = (gen_binomial(q, upto + 1) * g_next) * rl_deriv(f, coord, q - upto - 1, ctx)
        probe = tuple(a + 1.0 for a in ctx.initial_points)
        try:
            tail = abs(eval_expr(next_term, ctx, probe))
        except ValueError:  # every base is 1 here: only the sum of the terms can overflow
            tail = math.inf
    return SeriesResult(total, tail > 1e-9, tail)
