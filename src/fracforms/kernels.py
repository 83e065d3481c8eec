"""Hot summation kernel for the Grunwald-Letnikov quadrature.

:func:`gl_weights` gives the weights ``(-1)^k binom(q, k)`` and
:func:`gl_weighted_sum` the dot product ``sum_k w_k f_k`` of the products
``p_k = w_k f_k`` as rounded.  :func:`gl_level_sums` gives that sum for
every level of a Richardson call, the strided slices of one sample array,
in one pass over the weights.

Every sum is taken in blocks of :data:`BLOCK` products: one
``np.add.reduce`` per block (:func:`_block_sum`) and one ``math.fsum`` of
the block sums.  For a contiguous float64 array ``np.add.reduce`` is numpy's
pairwise sum.  On m <= 128 values it runs eight accumulators over the
values in turn, adds the eight in a tree and then the m mod 8 values left
over, so a value meets at most floor(m / 8) - 1 + 3 + m mod 8 <= 24
additions.  Longer arrays are split in two, the first part a multiple of 8
long, so each part has at most m / 2 + 8 values; after j halvings of b
values a part has at most b / 2^j + 16, and ``ceil(log2(b / 112))``
halvings reach 128.  With b = min(n, BLOCK) values a block, every product
therefore meets at most ``d = 24 + max(0, ceil(log2(b / 112)))``
additions, 33 at b = BLOCK, and the sum s of n products obeys

    |s - sum_k p_k| <= gamma_d * sum_k |p_k| + 2^-53 |s|,
    gamma_d = d u / (1 - d u), u = 2^-53

(Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 2002,
ch. 4), the last term being the final ``math.fsum``'s one rounding.

That is as accurate as the products are.  Each already carries the
rounding of its sample and the drift of its weight, and the cancellation
that makes a plain sum of them wrong is removed by the ``HEAD`` centring
below, not by summing more precisely.  Measured on a 2-vCPU Xeon with
numpy 2.4.6 against 40-digit GL sums of the samples t^p at the nodes
x - k x / n, for seven (p, q, x) at 4 001 and 32 001 nodes: the kernel
was within 2.0 u sum |p_k| of ``math.fsum`` of its products, and its
distance from the exact sum was at most 1.9 times that of ``math.fsum``
of the products ``w_k f_k`` (1.5 times at 4 001 nodes).  On D^1.9 t^0.9
at x = 1 and 3.2 M nodes, where the exact GL sum is -3.4e-27, the kernel
gives 9.5e-18 and ``math.fsum`` of its centred products, plus the
add-back, 9.1e-18; without the centring the two give -1.5e-16 and
-1.2e-16.

Each step has one implementation:

* :func:`_weight_blocks` is the weight recurrence.  It writes the ratios
  ``(k - 1 - q) / k`` of one block into a reused buffer after the last
  weight of the block before and runs ``cumprod`` over them.  That is the
  same chain of roundings as one ``cumprod`` over all the ratios, so the
  weights are bit-identical at every count (exact zeros of whole q, and
  their signs, carry across blocks).  :func:`gl_weights` copies the blocks
  out.
* :func:`_block_sum` is the sum of one block of products.
* :func:`gl_weighted_sum` multiplies given weights and samples a block at a
  time.  :func:`gl_level_sums` computes each weight block once and uses it
  at once for every level that reaches it: the level of stride s multiplies
  block j by ``vals[j B s : (j + 1) B s : s]``.  Blocks are counted in the
  index of the summed level, so a strided Richardson level is summed
  exactly as the same level sampled on its own grid: ``richardson`` equals
  per-level ``gl_deriv`` bit for bit.

For q > 0 the weights nearly cancel, the sum is about ``h^q D^q f(x)``,
and the first few products are far larger than that: at h = 1e-3 and
q = 1.88 the rounding of ``w_0 f_0``, ``w_1 f_1``, ... moved D^q t by 1e-9
in relative terms.  So for q > 0 :func:`gl_level_sums` sums the first
:data:`HEAD` samples of every level as ``f_k - f_0``: the difference is
exact near the first sample, where f is within a factor of two of
``f_0``, and its products are small.  ``f_0`` times the ``math.fsum`` of
those rounded weights is added back, so a level is still the GL sum of its
samples with the weights it uses, now with rounding on the order of the
sum itself.  For q <= 0 the weights do not cancel and the samples are
summed as they are.

Blocks are there for memory.  Full-length temporaries are page-faulted in
afresh on most calls and fall out of the 2 MiB L2 cache during the sum;
first touching a fresh 32 MB array takes 9-35 ms on the machine above,
against 4.5 ms to write it again.  With the weights made a block at a time
and every level summed from each weight block, the samples are the one
full-length array of a Richardson call.  Measured with the compensated
sum this kernel used before, for ``richardson`` of
``1.3*x^2.2 - 0.7*x^0.4`` at levels 5 over calls of mixed sizes, with
full-length weights and one pass per level, then blocked: 70 000 nodes took 21 minor faults and 2.4-2.7 ms, then 8 and
2.0-2.3 ms; 280 000 nodes 77 faults and 8.5-9.9 ms, then 41 and
8.2-8.8 ms; 480 000 nodes 80 faults and 13-17 ms, then 39 and 14-15 ms;
3.2 M nodes 2 060 faults and 115-141 ms, then 433 and 101-117 ms.  At
4 000 nodes the two were within run-to-run noise.  ``frac oracle`` of
``1.3*x^2.2`` at 3.2 M nodes peaked at 81.0 MB of RSS unblocked and
56.0 MB blocked; with the plain sum, whose only buffer is one block of
products, it peaks at 54 MB.  When blocks came in, the ``gl_oracle``
benchmark ran fastest at 2^15 and 2^16 among 2^14 ... 2^17; 2^15 is kept
for its smaller buffers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Values per block: 256 KiB of float64, chosen by measurement (see above).
BLOCK = 1 << 15

# Samples of every level that a sum of order q > 0 takes as differences from
# the first one (see above).
HEAD = 8


def _weight_blocks(q: float, count: int):
    """The weights w[lo:lo + BLOCK], block by block, for lo = 0, BLOCK, ...

    Every block is computed in the same buffer, so a block is valid only
    until the next one is asked for.  The buffer holds the last weight of the
    block before and then the block's ratios ``(k - 1 - q) / k``; one
    ``multiply.accumulate`` over it gives the block (``np.cumprod`` is this
    accumulate behind a slower wrapper).  w[0] = 1 enters as the ratio 1.0
    after the carried 1.0, both left in place from ``np.ones``, so every
    weight is the same chain of roundings as one ``cumprod`` over all the
    ratios.
    """
    b = min(count, BLOCK)
    buf = np.ones(b + 1)
    k = np.arange(b, dtype=np.float64)
    for lo in range(0, count, BLOCK):
        m = min(BLOCK, count - lo)
        if lo:
            np.add(k, BLOCK, k)
        first = 0 if lo else 1  # k = 0 has no ratio
        r, kb = buf[1 + first:m + 1], k[first:m]
        # the ratios (k - 1 - q) / k, in place
        np.subtract(kb, 1.0, r)
        np.subtract(r, q, r)
        np.divide(r, kb, r)
        r = buf[:m + 1]
        np.multiply.accumulate(r, out=r)
        yield buf[1:m + 1]
        buf[0] = buf[m]


def gl_weights(q: float, count: int) -> np.ndarray:
    """First ``count`` weights (-1)^k binom(q, k) via the stable recurrence.

    The recurrence is one sequential ``cumprod`` (see :func:`_weight_blocks`),
    so the weights for fewer nodes are bit for bit a prefix of these.
    """
    w = np.empty(count, dtype=np.float64)
    for lo, blk in zip(range(0, count, BLOCK), _weight_blocks(q, count)):
        w[lo:lo + blk.shape[0]] = blk
    return w


def _block_sum(a: np.ndarray) -> float:
    """``np.add.reduce`` of one block's products ``a``, as a float: numpy's
    pairwise sum, within the bound of the module docstring.  A sum that is
    not finite raises ``OverflowError`` before ``math.fsum`` meets it; the
    callers silence numpy's overflow and invalid warnings around the block.
    """
    total = float(np.add.reduce(a))
    if not math.isfinite(total):
        raise OverflowError("a block of GL products does not sum to a finite double")
    return total


def gl_weighted_sum(fvals: np.ndarray, weights: np.ndarray) -> float:
    """``sum_k weights[k] * fvals[k]`` over the length of ``fvals``.

    ``weights`` may be longer than ``fvals``; only its prefix is used.  Each
    block's products are summed by :func:`_block_sum` and the block sums by
    ``math.fsum``, so the result obeys the bound of the module docstring.  A
    block whose sum is not finite raises ``OverflowError``.
    """
    fvals = np.asarray(fvals, dtype=np.float64)
    n = fvals.shape[0]
    prods, parts = np.empty(min(n, BLOCK)), []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, BLOCK):
            m = min(BLOCK, n - lo)
            parts.append(_block_sum(np.multiply(weights[lo:lo + m], fvals[lo:lo + m], prods[:m])))
    return math.fsum(parts)


def gl_level_sums(q: float, vals: np.ndarray, strides: Sequence[int]) -> list[float]:
    """The GL sum of every strided level of ``vals``, in one pass.

    The level of stride s is ``vals[::s]`` (``vals`` is not empty), its
    n_s = ceil(len(vals) / s) samples weighted by ``gl_weights(q, n_s)``, and its sum is
    ``gl_weighted_sum`` of the two, bit for bit.  Each weight block is
    computed once and used at once by every level that reaches it; each
    level sums its own blocks as :func:`gl_weighted_sum` would, so only the
    weight block and one block of products are block-sized and nothing but
    ``vals`` is as long as the grid.

    For q > 0, the first :data:`HEAD` samples of every level are summed as
    differences from ``f0 = vals[0]`` and ``f0`` times the ``math.fsum`` of
    their weights is added to the level's sum: the same GL sum, with the
    rounding of large nearly cancelling products near the first sample gone.
    A block whose sum is not finite raises ``OverflowError``; an add-back
    beyond the largest double leaves the level infinite.
    """
    counts = [-(-vals.shape[0] // s) for s in strides]
    top = max(counts)
    prods, parts = np.empty(min(top, BLOCK)), [[] for _ in strides]
    f0, back = float(vals[0]), []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, w in zip(range(0, top, BLOCK), _weight_blocks(q, top)):
            for s, n_s, level in zip(strides, counts, parts):
                if n_s <= lo:
                    continue
                m = min(BLOCK, n_s - lo)
                a = np.multiply(w[:m], vals[lo * s:(lo + m) * s:s], prods[:m])
                if not lo and q > 0:
                    j = min(HEAD, m)
                    np.subtract(vals[:j * s:s], f0, a[:j])
                    np.multiply(w[:j], a[:j], a[:j])
                    back.append(f0 * math.fsum(w[:j].tolist()))
                level.append(_block_sum(a))
    sums = [math.fsum(level) for level in parts]
    return [total + b for total, b in zip(sums, back)] if q > 0 else sums


def backend() -> str:
    """Name of the summation backend, always ``"numpy"``.  Kept only because
    the benchmark under ``perfbench/`` reports it; it goes with the benchmark
    change of ROADMAP item 5."""
    return "numpy"
