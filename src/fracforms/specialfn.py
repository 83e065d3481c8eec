"""Gamma-family scalar functions with explicit pole handling.

Everything here is real double precision.  The reciprocal gamma ``rgamma`` is
the workhorse: it is entire, and it is *exactly* zero at non-positive
integers, which is what makes whole-order degenerations of the fractional
operators drop exactly the terms a classical derivative would.

Ratios of gamma values are computed in log space (``gamma_ratio``) so that a
value shared between numerator and denominator cancels exactly instead of
leaving a one-ulp residue.
"""

from __future__ import annotations

import math

from .errors import PoleError
from .tolerances import EXP_TOL

_LOG_MAX = 709.0   # log of the largest finite double, roughly
_LOG_MIN = -745.0  # below this exp() underflows to zero


def snap_int(x: float) -> int | None:
    """Nearest integer when ``x`` is within ``EXP_TOL`` of one, else None."""
    r = round(x)
    if abs(x - r) <= EXP_TOL:
        return int(r)
    return None


def whole_ceil(q: float) -> int:
    """Smallest whole number >= q, snapping near-integers to themselves.

    This is the ``m`` attached everywhere to a fractional order: m-1 < q <= m
    for non-integral q > 0, and m = q when q is whole.
    """
    k = snap_int(q)
    if k is not None:
        return k
    return math.ceil(q)


def is_gamma_pole(x: float) -> bool:
    """True when ``x`` lies within ``EXP_TOL`` of a non-positive integer."""
    if x > 0.5:
        return False
    r = round(x)
    return r <= 0 and abs(x - r) <= EXP_TOL


def sign_gamma(x: float) -> float:
    """Sign of gamma(x) away from poles: positive for x > 0, alternating below."""
    if x > 0.0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


def gamma(x: float) -> float:
    """Gamma function on the real line, raising :class:`PoleError` at poles.

    A pole is where :func:`rgamma` is zero: within ``EXP_TOL`` of a
    non-positive integer.  Relative accuracy is a few ulps over [-170, 170]
    away from the poles; callers who need a value *at* a pole want
    :func:`rgamma` instead.
    """
    if is_gamma_pole(x):
        raise PoleError(f"gamma({x}) is a pole; use rgamma for the reciprocal")
    return math.gamma(x)


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/gamma(x); total, and exactly 0 at non-positive integers."""
    return gamma_ratio((), (x,))


def gamma_ratio(numerators: tuple[float, ...], denominators: tuple[float, ...]) -> float:
    """prod gamma(numerators) / prod gamma(denominators), in log space.

    Returns exactly 0.0 when any denominator argument sits on a pole (the
    rgamma-zero convention).  A pole in a numerator raises, since the callers
    here always keep numerator arguments positive.  Arguments shared between
    the two sides cancel exactly.
    """
    for d in denominators:
        if is_gamma_pole(d):
            return 0.0
    log = 0.0
    sign = 1.0
    for n in numerators:
        if is_gamma_pole(n):
            raise PoleError(f"gamma({n}) pole in a ratio numerator")
        log += math.lgamma(n)
        sign *= sign_gamma(n)
    for d in denominators:
        log -= math.lgamma(d)
        sign *= sign_gamma(d)
    if log > _LOG_MAX:
        return math.copysign(math.inf, sign)
    if log < _LOG_MIN:
        return sign * 0.0
    return sign * math.exp(log)


def gen_binomial(q: float, j: int) -> float:
    """Generalized binomial coefficient binom(q, j) for real q and whole j >= 0.

    Equals Gamma(q+1) / (Gamma(j+1) * Gamma(q-j+1)) with the mathematical
    Gamma function wherever that ratio is defined (not this module's
    :func:`rgamma`, which snaps to 0 within ``EXP_TOL`` of a pole).  It is
    computed as the falling-factorial product q(q-1)...(q-j+1)/j!, a
    polynomial in q, so it stays finite for negative integer q and is
    continuous in q: no tolerance snap is applied, and a q within EXP_TOL of a
    whole number gives the small true value, not zero.  The result is exactly
    zero only for whole q with 0 <= q < j, where the factor q - q is 0.0.
    """
    if j < 0 or j != int(j):
        raise ValueError(f"binomial index must be a whole number >= 0, got {j}")
    acc = 1.0
    for i in range(int(j)):
        acc *= (q - i) / (i + 1)
    return acc
