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

Both functions work in blocks of :data:`BLOCK` values:

* :func:`gl_weights` writes the ratios ``(k - 1 - q) / k`` of one block in
  place and runs ``cumprod`` over them with the last weight of the block
  before as the first factor.  That is the same chain of roundings as one
  ``cumprod`` over all the ratios, so the weights are bit-identical at every
  count (exact zeros of whole q, and their signs, carry across blocks).
* :func:`gl_weighted_sum` multiplies and folds one block of products at a
  time in three block-sized buffers, and passes every block's remaining
  values and per-level error sums to one ``math.fsum``.  Each block is a
  sum of its own, so the error bound is the unblocked one with n replaced
  by the block length ``b = min(n, BLOCK)``.  For n <= BLOCK the loop runs
  once and is the unblocked kernel, bit for bit.  Blocks are counted in the
  index of the summed array, so a strided Richardson level is summed exactly
  as the same level sampled on its own grid: ``richardson`` equals
  per-level ``gl_deriv`` bit for bit.

Blocks are there for memory, not arithmetic.  Full-length temporaries were
page-faulted in afresh on most calls and fell out of the 2 MiB L2 cache
during the fold; first touching a fresh 32 MB array takes 9-35 ms on the
machine below, against 4.5 ms to write it again.  Measured on a 2-vCPU Xeon
with numpy 2.4, for ``richardson`` at levels 5 over calls of mixed sizes,
before and after blocking: 280 000 nodes took 1 367 minor faults and 18 ms,
then none and 12-13 ms; 480 000 nodes took 3 601 faults and 34-36 ms, then
1 148 (the samples and weights) and 20-26 ms.  At 4 000 and 70 000 nodes
the two are within run-to-run noise; a one-block call pays about 2 us a sum
for the loop and a copy of its samples.  One 3.2 M-node call peaks at 53 MB
in ``tracemalloc`` instead of 106 MB.  Among 2^14 ... 2^17, the
``gl_oracle`` benchmark ran fastest at 2^15 and 2^16; 2^15 is kept for its
smaller buffers.
"""

from __future__ import annotations

import math

import numpy as np

# Folding stops once this many values remain; ``math.fsum`` over a list that
# short costs about as much as one more numpy level.
FSUM_TAIL = 512

# Values per block: 256 KiB of float64, chosen by measurement (see above).
BLOCK = 1 << 15


def gl_weights(q: float, count: int) -> np.ndarray:
    """First ``count`` weights (-1)^k binom(q, k) via the stable recurrence.

    The recurrence is a sequential ``cumprod``, run block by block with the
    last weight of the previous block as the first factor, so the weights
    for fewer nodes are bit for bit a prefix of these.
    """
    w = np.empty(count, dtype=np.float64)
    w[0] = 1.0
    k = np.arange(1, min(count, BLOCK + 1), dtype=np.float64)
    for lo in range(1, count, BLOCK):
        if lo > 1:
            np.add(k, BLOCK, k)
        r = w[lo:lo + BLOCK]
        kb = k[:r.shape[0]]
        # the ratios (k - 1 - q) / k, in place, then w[lo-1] times their
        # cumprod (np.cumprod is this accumulate behind a slower wrapper)
        np.subtract(kb, 1.0, r)
        np.subtract(r, q, r)
        np.divide(r, kb, r)
        r = w[lo - 1:lo + r.shape[0]]
        np.multiply.accumulate(r, out=r)
    return w


def gl_weighted_sum(fvals: np.ndarray, weights: np.ndarray) -> float:
    """``sum_k weights[k] * fvals[k]`` over the length of ``fvals``.

    ``weights`` may be longer than ``fvals``; only its prefix is used.  The
    result is within ``2^-50 |sum| + b 2^-104 sum |w_k f_k|`` of the exact
    sum of the rounded products, with b = min(n, BLOCK).  Non-finite
    products, or partial sums that overflow, give a non-finite result or an
    error from ``math.fsum``.
    """
    fvals = np.asarray(fvals, dtype=np.float64)
    n = fvals.shape[0]
    b = min(n, BLOCK)
    prods, half, bb_buf = np.empty(b), np.empty((b + 1) // 2), np.empty(b // 2)
    tails, err_sums = [], []
    for lo in range(0, n, BLOCK):
        m = min(BLOCK, n - lo)
        a = np.multiply(weights[lo:lo + m], fvals[lo:lo + m], prods[:m])
        s_buf = half
        while m > FSUM_TAIL:
            h = m // 2
            x, y, s, bb = a[:h], a[h:2 * h], s_buf[:h], bb_buf[:h]
            # TwoSum, in place: s = fl(x + y) and x ends as the exact x + y - s
            # (outputs passed positionally: a keyword costs 0.3 us a call)
            np.add(x, y, s)
            np.subtract(s, x, bb)
            np.subtract(y, bb, y)
            np.subtract(s, bb, bb)
            np.subtract(x, bb, x)
            np.add(x, y, x)
            err_sums.append(np.add.reduce(x))  # x.sum(), without its wrapper
            if m & 1:
                s_buf[h] = a[m - 1]
                h += 1
            a, s_buf, m = s_buf, a, h
        tails += a[:m].tolist()
    # tails first: math.fsum runs faster so, and for n <= BLOCK this is the
    # unblocked kernel's list
    tails += err_sums
    return math.fsum(tails)


def backend() -> str:
    """Name of the summation backend, always ``"numpy"``.  Kept only because
    the benchmark under ``perfbench/`` reports it; it goes with the benchmark
    change of ROADMAP item 5."""
    return "numpy"
