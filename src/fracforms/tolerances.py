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
    The merge key of an exponent: ``p * 10**KEY_DIGITS`` rounded half to
    even to a whole number, divided by ``10**KEY_DIGITS``.  Terms whose
    exponents share the key in every coordinate are one term.
    ``KEY_DIGITS`` is the number of decimals ``EXP_TOL`` resolves (9), so
    exponents that round to one key differ by less than a tolerance step.
    ``key`` (one Python float) and ``keys`` (a numpy array) carry out the
    same IEEE operations and give the same doubles, except that a zero key
    may differ in sign; keys are only compared, so it does not matter.

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
    """The merge key of one exponent.

    A product of 2^52 or more is already whole, and leaving it as it is
    keeps ``round`` from raising on an infinite product.
    """
    y = p * _KEY_SCALE
    return (round(y) if abs(y) < 2.0 ** 52 else y) / _KEY_SCALE


def keys(p: np.ndarray) -> np.ndarray:
    """Elementwise :func:`key`."""
    return np.rint(p * _KEY_SCALE) / _KEY_SCALE
