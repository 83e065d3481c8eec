"""The one tolerance policy: every threshold and the merge key.

Each value below is defined here and nowhere else; the other modules import
it.  What each one decides:

``EXP_TOL``
    An order or exponent within ``EXP_TOL`` of 0, of a whole number or of a
    pole of gamma *is* that value.  Canonicalization snaps such exponents to
    0; :func:`fracforms.specialfn.snap_int` and ``whole_ceil`` take such an
    order as whole, so whole orders reproduce classical calculus;
    :func:`fracforms.specialfn.rgamma` is exactly 0 there and ``gamma``
    raises.  A differential order within ``EXP_TOL`` of a form's order is the
    form's order, and two forms whose orders differ by no more than it
    combine.
``COEFF_DROP``
    A canonical coefficient strictly below ``COEFF_DROP`` in magnitude is
    dropped; it is also the default tolerance of ``exprs_close`` and
    ``forms_close``.
``RESIDUAL_TOL``
    A residual coefficient at or below ``RESIDUAL_TOL`` counts as zero: a
    closedness witness, an exactness leftover, a verification residual.
``key`` / ``keys``
    The merge key of an exponent, ``round(p, KEY_DIGITS)``; terms whose
    exponents share the key in every coordinate are one term.  ``KEY_DIGITS``
    is the number of decimals ``EXP_TOL`` resolves (9), so exponents that
    round to one key differ by less than a tolerance step.

All three thresholds are absolute.
"""

from __future__ import annotations

import math

import numpy as np

EXP_TOL = 1e-9
COEFF_DROP = 1e-12
RESIDUAL_TOL = 1e-10

KEY_DIGITS = round(-math.log10(EXP_TOL))
_KEY_SCALE = 10.0 ** KEY_DIGITS


def key(p: float) -> float:
    """The merge key of one exponent."""
    return round(p, KEY_DIGITS)


def keys(p: np.ndarray) -> np.ndarray:
    """Elementwise :func:`key`, the same doubles as Python's round.

    ``rint(p * 10**KEY_DIGITS) / 10**KEY_DIGITS`` is Python's answer whenever
    the rounded product sits clearly off a half-integer and is small enough
    for exact integers (below 2^20 the product stays under 2^50 at nine
    digits); the few entries where that is not certain go through Python's
    round.
    """
    y = p * _KEY_SCALE
    out = np.rint(y) / _KEY_SCALE
    doubt = (np.abs(p) >= 2.0 ** 20) | (np.abs(y - np.floor(y) - 0.5) <= np.abs(y) * 2.0 ** -52)
    if doubt.any():
        out[doubt] = [round(v, KEY_DIGITS) for v in p[doubt].tolist()]
    return out
