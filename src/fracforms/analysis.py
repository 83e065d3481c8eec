"""Kernels, closedness, integrability, and exact-potential reconstruction.

Everything here is anchored at the origin: the differintegral kernels used
for the basis elements and the reconstruction formula are only valid when
every initial point is 0.  Functions that return a status object report
non-origin contexts as unsupported; the rest raise ``UnsupportedError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import UnsupportedError, VerificationError
from .forms import DiffFactor, Form, WedgeWord, forms_close, frac_exterior_deriv
from .rl import rl_deriv, rl_integ
from .specialfn import whole_ceil
from .symbolic import (
    EXP_TOL,
    Context,
    Expr,
    canonicalize,
    classical_derivative,
    max_abs_coeff,
    monomial,
    shift_exponent,
)

# residual coefficients below this are treated as a satisfied condition
RESIDUAL_TOL = 1e-10


def _require_origin(ctx: Context, what: str) -> None:
    if not ctx.at_origin():
        raise UnsupportedError(f"{what} requires all initial points at the origin")


def kernel_basis_1d(nu: float, coord: int | str, ctx: Context) -> list[Expr]:
    """Basis {x^(nu-m+k) : k < m} of the order-nu derivative kernel in one
    coordinate, m the ceiling whole order."""
    _require_origin(ctx, "kernel_basis_1d")
    nu = float(nu)
    if nu <= 0:
        raise ValueError(f"kernel order must be positive, got {nu}")
    coord = ctx.index(coord)
    m = whole_ceil(nu)
    return [monomial(ctx, 1.0, {coord: nu - m + k}) for k in range(m)]


def kernel_basis_dv(nu: float, ctx: Context) -> list[Expr]:
    """Basis of the order-nu exterior-derivative kernel over all coordinates.

    Elements are (prod_i x_i)^(nu-m) * prod_i x_i^(k_i) with every k_i
    ranging over 0..m-1, so the basis has m^n elements.
    """
    _require_origin(ctx, "kernel_basis_dv")
    nu = float(nu)
    if nu <= 0:
        raise ValueError(f"kernel order must be positive, got {nu}")
    m = whole_ceil(nu)
    out = []
    for ks in itertools.product(range(m), repeat=ctx.n):
        out.append(monomial(ctx, 1.0, {i: nu - m + k for i, k in enumerate(ks)}))
    return out


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of the order-mu closedness test d^mu alpha = 0 on a grade-1 form.

    ``witnesses`` holds one (i, j, residual) triple per word of d^mu alpha
    above RESIDUAL_TOL, sorted by (i, j); closed means the list is empty.
    """

    closed: bool
    witnesses: tuple[tuple[int, int, Expr], ...]
    mu: float
    nu: float


def _components(alpha: Form, ctx: Context) -> list[Expr]:
    if alpha.grade != 1:
        raise ValueError(f"expected a grade-1 form, got grade {alpha.grade}")
    return [alpha.component(i, ctx.n) for i in range(ctx.n)]


def is_closed(alpha: Form, mu: float, ctx: Context) -> ClosureReport:
    """Test d^mu alpha = 0 for a grade-1 form of uniform order nu, mu > 0.

    A mu within EXP_TOL of nu is taken as nu, so d(i,nu) & d(i,nu) is the
    zero word and d(i,nu) & d(j,nu) holds rl_deriv(alpha_j, i) -
    rl_deriv(alpha_i, j).  For any other mu, the word of d(j,mu) and d(i,nu)
    holds the single partial rl_deriv(alpha_i, j, mu) up to the word's sign.
    """
    mu = float(mu)
    comps = _components(alpha, ctx)
    if mu <= EXP_TOL:
        raise ValueError(f"closedness order must be positive, got {mu}")
    nu = alpha.total_order
    order = nu if abs(mu - nu) <= EXP_TOL else mu
    alpha = Form(1, nu, {WedgeWord((DiffFactor(i, nu),)): c for i, c in enumerate(comps)})
    witnesses = []
    for word, res in frac_exterior_deriv(alpha, order, ctx).terms.items():
        if max_abs_coeff(res) <= RESIDUAL_TOL:
            continue
        first, second = word.factors  # d(i,nu) & d(j,nu), i < j, when mu is nu
        if first.order != order:  # d(i,nu) & d(j,mu) = -(d(j,mu) & d(i,nu))
            res = -res
        elif second.order != order:  # d(j,mu) & d(i,nu)
            first, second = second, first
        witnesses.append((first.coord, second.coord, res))
    witnesses.sort(key=lambda w: w[:2])
    return ClosureReport(not witnesses, tuple(witnesses), mu, nu)


def integrability_residual(alpha: Form, i: int, j: int, ctx: Context) -> Expr:
    """Obstruction to alpha_j arising from a potential built out of alpha_i.

    Computes d^m/dx_i^m [ (alpha_j - D_j^nu D_i^(-nu) alpha_i) / x_i^(nu-m) ],
    m the ceiling whole order of nu; the division is exponent subtraction.
    Zero for every (i, j) pair is the grade-1 integrability condition.
    """
    _require_origin(ctx, "integrability_residual")
    comps = _components(alpha, ctx)
    nu = alpha.total_order
    inner = comps[j] - rl_deriv(rl_integ(comps[i], i, nu, ctx), j, nu, ctx)
    return _obstruction(inner, i, nu)


def _obstruction(inner: Expr, i: int, nu: float) -> Expr:
    """d^m/dx_i^m [ inner / x_i^(nu-m) ], m the ceiling whole order of nu."""
    m = whole_ceil(nu)
    return classical_derivative(shift_exponent(inner, i, -(nu - m)), i, m)


@dataclass(frozen=True)
class ExactnessResult:
    """Outcome of exact-potential reconstruction.

    status is one of "exact" (f holds the potential), "not_integrable"
    (residual/i/j hold the first failing obstruction), or "unsupported"
    (reason says why the problem is out of scope).
    """

    status: str
    f: Expr | None = None
    residual: Expr | None = None
    i: int | None = None
    j: int | None = None
    reason: str | None = None
    kernel: tuple[Expr, ...] = field(default=())

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"


def _reconstruct(comps: list[Expr], coords: list[int], nu: float, ctx: Context,
                 f0: Expr | None = None, nums: Iterable[Expr] = ()) -> Expr | None:
    """Recursive candidate potential; None when a division leaves a remainder.

    ``f0`` and ``nums``, when given, are D_i0^(-nu) comps[i0] and, for each
    later coordinate j in turn, comps[j] - D_j^nu f0, already computed;
    otherwise each is computed as it is needed.
    """
    i0 = coords[0]
    if f0 is None:
        f0 = rl_integ(comps[i0], i0, nu, ctx)
        nums = (comps[j] - rl_deriv(f0, j, nu, ctx) for j in coords[1:])
    if len(coords) == 1:
        return f0
    beta = list(comps)
    for j, num in zip(coords[1:], nums):
        shifted = canonicalize(shift_exponent(num, i0, -(nu - 1.0)))
        free = np.abs(shifted.exponents[:, i0]) <= EXP_TOL
        # the shifted residue must be free of x_i0, else no separable c_0 exists
        if (~free & (np.abs(shifted.coeffs) > RESIDUAL_TOL)).any():
            return None
        beta[j] = shifted.take(free)
    c0 = _reconstruct(beta, coords[1:], nu, ctx)
    if c0 is None:
        return None
    return f0 + c0 * monomial(ctx, 1.0, {i0: nu - 1.0})


def solve_exact(alpha: Form, nu: float, ctx: Context) -> ExactnessResult:
    """Reconstruct f with d^nu f = alpha for a grade-1 form, 0 < nu <= 1.

    The integrability residual of every ordered pair (i, j) is checked first,
    in order, and the first one above ``RESIDUAL_TOL`` is reported.  Each
    D_i^(-nu) alpha_i is computed once for all its pairs, and the partials
    of the i = 0 pairs, D_0^(-nu) alpha_0 and alpha_j - D_j^nu D_0^(-nu)
    alpha_0, feed the reconstruction when nu is the form's own order.

    The candidate is f = D_1^(-nu) alpha_1 + c_0 * x_1^(nu-1) with c_0 an
    expression in the remaining coordinates, solved recursively; the result
    is round-trip verified before being reported exact.  Reconstruction for
    nu > 1 needs several kernel constants at once and is not offered.
    """
    nu = float(nu)
    if not ctx.at_origin():
        return ExactnessResult("unsupported",
                               reason="initial points must all be at the origin")
    if nu > 1.0 + EXP_TOL:
        return ExactnessResult("unsupported",
                               reason=f"reconstruction is limited to 0 < nu <= 1, got {nu}")
    if nu <= EXP_TOL:
        return ExactnessResult("unsupported", reason="order must be positive")
    order = alpha.total_order
    if abs(order - nu) > EXP_TOL:
        raise ValueError(
            f"form order {order} does not match requested order {nu}")
    comps = _components(alpha, ctx)

    top = ()
    for i in range(ctx.n if ctx.n > 1 else 0):  # one coordinate has no pairs
        f_i = rl_integ(comps[i], i, order, ctx)
        nums = []
        for j in range(ctx.n):
            if i == j:
                continue
            num = comps[j] - rl_deriv(f_i, j, order, ctx)
            nums.append(num)
            res = _obstruction(num, i, order)
            if max_abs_coeff(res) > RESIDUAL_TOL:
                return ExactnessResult("not_integrable", residual=res, i=i, j=j)
        if i == 0 and nu == order:
            top = (f_i, nums)

    f = _reconstruct(comps, list(range(ctx.n)), nu, ctx, *top)
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
