"""Kernels, closedness, integrability, and exact potentials at any order nu > 0.

Every operator here has lower terminal a_i along coordinate i, at any
initial points: an ``Expr`` is a sum of powers of x_i - a_i, on which that
operator acts as the one from 0 acts on powers of x_i.  So the kernel bases,
the obstruction and the potential are the same arrays at every initial
point, read as powers of x_i - a_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import ExponentDomainError, VerificationError
from .forms import Form, frac_exterior_deriv
from .rl import rl_deriv, rl_integ
from .specialfn import whole_ceil
from .symbolic import (
    Context,
    Expr,
    classical_derivative,
    max_abs_coeff,
    monomial,
    shift_exponent,
)
from .tolerances import EXP_TOL, RESIDUAL_TOL


def kernel_basis_1d(nu: float, coord: int | str, ctx: Context) -> list[Expr]:
    """Basis {x^(nu-m+k) : k < m} of the order-nu derivative kernel in one
    coordinate, m the ceiling whole order."""
    nu = float(nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"kernel order must be positive and finite, got {nu}")
    coord = ctx.index(coord)
    m = whole_ceil(nu)
    return [monomial(ctx, 1.0, {coord: nu - m + k}) for k in range(m)]


def kernel_basis_dv(nu: float, ctx: Context) -> list[Expr]:
    """Basis of the order-nu exterior-derivative kernel over all coordinates.

    Elements are (prod_i x_i)^(nu-m) * prod_i x_i^(k_i) with every k_i
    ranging over 0..m-1, so the basis has m^n elements.
    """
    nu = float(nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"kernel order must be positive and finite, got {nu}")
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


def is_closed(alpha: Form, mu: float, ctx: Context) -> ClosureReport:
    """Test d^mu alpha = 0 for a grade-1 form of uniform order nu, mu > 0.

    A mu within EXP_TOL of nu is taken as nu, so d(i,nu) & d(i,nu) is the
    zero word and d(i,nu) & d(j,nu) holds rl_deriv(alpha_j, i) -
    rl_deriv(alpha_i, j).  For any other mu, the word of d(j,mu) and d(i,nu)
    holds the single partial rl_deriv(alpha_i, j, mu) up to the word's sign.
    """
    mu = float(mu)
    alpha.component(0, ctx.n)  # raises unless alpha is a grade-1 form
    if mu <= EXP_TOL:
        raise ValueError(f"closedness order must be positive, got {mu}")
    nu = alpha.total_order
    order = nu if alpha.has_order(mu) else mu
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
    nu = alpha.total_order
    inner = (alpha.component(j, ctx.n)
             - rl_deriv(rl_integ(alpha.component(i, ctx.n), i, nu, ctx), j, nu, ctx))
    m = whole_ceil(nu)
    return classical_derivative(shift_exponent(inner, i, -(nu - m)), i, m)


@dataclass(frozen=True)
class ExactnessResult:
    """Outcome of exact-potential reconstruction.

    status is one of "exact" (f holds the potential), "not_integrable"
    (residual/i/j hold the first closure witness of d^nu alpha, as
    ``is_closed`` reports it), or "unsupported" (reason names the term that
    left the operator domain without a witness, or the order that is not
    positive).
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


def solve_exact(alpha: Form, nu: float, ctx: Context) -> ExactnessResult:
    """Reconstruct f with d^nu f = alpha for a grade-1 form, any order nu > 0.

    The Poincare-lemma homotopy: from gamma = alpha and f = 0, each coordinate
    c in turn adds part = D_c^(-nu) gamma_c to f and subtracts d^nu part from
    gamma.  The operators along c have lower terminal a_c at every initial
    point; on powers of x_c - a_c, D_c^nu D_c^(-nu) is the identity and
    partials along different coordinates commute, so the leftover
    gamma = alpha - d^nu f, the round trip, vanishes exactly when alpha is
    closed.  Everything runs at the form's order, which nu must match within
    EXP_TOL.  A leftover word above ``RESIDUAL_TOL``, or a closure witness
    after a term leaves the operator domain, gives "not_integrable" with the
    first witness of is_closed(gamma), the one ``frac closed`` prints.  A
    domain failure without a witness, or nu <= 0, is "unsupported" and says
    why.
    """
    nu = float(nu)
    if nu <= EXP_TOL:
        return ExactnessResult("unsupported", reason="order must be positive")
    order = alpha.total_order
    if not alpha.has_order(nu):
        raise ValueError(f"form order {order} does not match requested order {nu}")

    gamma, f, failure = alpha, Expr.zero(ctx.n), None
    try:
        for c in range(ctx.n):  # component raises unless alpha is a grade-1 form
            part = rl_integ(gamma.component(c, ctx.n), c, order, ctx)
            f = f + part
            gamma = gamma - frac_exterior_deriv(part, order, ctx)
    except ExponentDomainError as exc:
        failure = str(exc)
    else:
        if all(max_abs_coeff(res) <= RESIDUAL_TOL for res in gamma.terms.values()):
            return ExactnessResult("exact", f=f, kernel=tuple(kernel_basis_dv(order, ctx)))
    try:  # d^nu gamma = d^nu alpha, and gamma is the smaller form
        witnesses = is_closed(gamma, order, ctx).witnesses
    except ExponentDomainError:
        witnesses = ()
    if witnesses:
        i, j, res = witnesses[0]
        return ExactnessResult("not_integrable", residual=res, i=i, j=j)
    if failure is not None:
        return ExactnessResult("unsupported", reason=failure)
    raise VerificationError("d^nu f leaves a residue of a closed form; "
                            "this signals an internal inconsistency")
