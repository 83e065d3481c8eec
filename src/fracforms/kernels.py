"""Hot summation kernel for the Grunwald-Letnikov quadrature.

:func:`gl_weights` gives the weights ``(-1)^k binom(q, k)`` and
:func:`gl_weighted_sum` the dot product ``sum_k w_k f_k``, compensated so that
it is as accurate as ``math.fsum`` of the products ``w_k * f_k``.

Plain pairwise summation (``np.sum``, ``np.dot``) is not accurate enough
here.  The GL sum cancels heavily: near a pole of ``1/gamma(p - q + 1)`` the
answer is many orders of magnitude below the largest products (condition
number about 1e17 for ``D^1.9 t^0.9`` at 3.2e6 nodes, where ``np.sum`` is 12x
off in relative terms).  The kernel therefore folds the products in halves
with Knuth's error-free TwoSum, sums each level's exact rounding errors with
``np.sum`` and adds the few remaining values and the per-level error sums
with ``math.fsum``; this is the doubled-precision pairwise sum of Ogita, Rump
and Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005).
"""

from __future__ import annotations

import math

import numpy as np

# Folding stops once this many values remain; ``math.fsum`` over a list that
# short costs about as much as one more numpy level.
FSUM_TAIL = 512


def gl_weights(q: float, count: int) -> np.ndarray:
    """First ``count`` weights (-1)^k binom(q, k) via the stable recurrence.

    The recurrence is a sequential ``cumprod``, so the weights for fewer
    nodes are bit for bit a prefix of these.
    """
    w = np.empty(count, dtype=np.float64)
    w[0] = 1.0
    if count > 1:
        k = np.arange(1, count, dtype=np.float64)
        np.cumprod((k - 1.0 - q) / k, out=w[1:])
    return w


def gl_weighted_sum(fvals: np.ndarray, weights: np.ndarray) -> float:
    """``sum_k weights[k] * fvals[k]`` over the length of ``fvals``.

    ``weights`` may be longer than ``fvals``; only its prefix is used.  The
    result is within ``2^-50 |sum| + n 2^-104 sum |w_k f_k|`` of the
    exact sum of the rounded products.  Non-finite products, or partial sums
    that overflow, give a non-finite result or an error from ``math.fsum``.
    """
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
        # TwoSum, in place: s = fl(x + y) and x ends as the exact x + y - s
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


def backend() -> str:
    """Name of the summation backend; numpy is the only one."""
    return "numpy"
