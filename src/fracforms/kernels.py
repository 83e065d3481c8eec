"""Hot summation kernel for the Grunwald-Letnikov quadrature.

:func:`gl_weights` gives the weights ``(-1)^k binom(q, k)`` and
:func:`gl_weighted_sum` the dot product ``sum_k w_k f_k``, compensated so that
it is as accurate as ``math.fsum`` of the products ``w_k * f_k``.
:func:`gl_level_sums` gives that sum for every level of a Richardson call,
the strided slices of one sample array, in one pass over the weights.

Plain pairwise summation (``np.sum``, ``np.dot``) is not accurate enough
here.  The GL sum cancels heavily: near a pole of ``1/gamma(p - q + 1)`` the
answer is many orders of magnitude below the largest products (condition
number about 1e17 for ``D^1.9 t^0.9`` at 3.2e6 nodes, where ``np.sum`` is 12x
off in relative terms).  The kernel therefore folds the products in halves
with Knuth's error-free TwoSum, sums each level's exact rounding errors with
``np.sum`` and adds the few remaining values and the per-level error sums
with ``math.fsum``; this is the doubled-precision pairwise sum of Ogita, Rump
and Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005).

Everything works in blocks of :data:`BLOCK` values, with one
implementation of each step:

* :func:`_weight_blocks` is the weight recurrence.  It writes the ratios
  ``(k - 1 - q) / k`` of one block into a reused buffer after the last
  weight of the block before and runs ``cumprod`` over them.  That is the
  same chain of roundings as one ``cumprod`` over all the ratios, so the
  weights are bit-identical at every count (exact zeros of whole q, and
  their signs, carry across blocks).  :func:`gl_weights` copies the blocks
  out.
* :func:`_fold` is the fold.  It folds one block of products in buffers
  allocated once per call, copies the block's remaining values into its
  slot of a call-long array, and keeps them and the error sum of each
  halving for one ``math.fsum`` per sum (:func:`_total`).  Each block is
  a sum of its own, so the error bound is the unblocked one with n
  replaced by the block length ``b = min(n, BLOCK)``.  For n <= BLOCK the
  fold runs once and is the unblocked kernel, bit for bit.
* :func:`gl_weighted_sum` multiplies given weights and samples a block at a
  time.  :func:`gl_level_sums` computes each weight block once and uses it
  at once for every level that reaches it: the level of stride s multiplies
  block j by ``vals[j B s : (j + 1) B s : s]``.  Blocks are counted in the
  index of the summed level, so a strided Richardson level is summed
  exactly as the same level sampled on its own grid: ``richardson`` equals
  per-level ``gl_deriv`` bit for bit.

The fold sums the products ``w_k f_k`` as rounded, with no error beyond
that rounding worth naming.  For q > 0 the weights nearly cancel, the sum
is about ``h^q D^q f(x)``, and the first few products are far larger than
that: at h = 1e-3 and q = 1.88 the rounding of ``w_0 f_0``, ``w_1 f_1``, ...
moved D^q t by 1e-9 in relative terms.  So for q > 0 :func:`gl_level_sums`
sums the first :data:`HEAD` samples of every level as ``f_k - f_0``: the
difference is exact near the first sample, where f is within a factor of
two of ``f_0``, and its products are small.  ``f_0`` times the
``math.fsum`` of those rounded weights is added back, so a level is still
the GL sum of its samples with the weights it uses, now with rounding on
the order of the sum itself.  For q <= 0 the weights do not cancel and the
samples are summed as they are.

Blocks are there for memory, not arithmetic.  Full-length temporaries are
page-faulted in afresh on most calls and fall out of the 2 MiB L2 cache
during the fold; first touching a fresh 32 MB array takes 9-35 ms on the
machine below, against 4.5 ms to write it again.  With the weights made a
block at a time and every level summed from each weight block, the samples
are the one full-length array of a Richardson call.  Measured on a 2-vCPU
Xeon with numpy 2.4.6, for ``richardson`` of ``1.3*x^2.2 - 0.7*x^0.4`` at
levels 5 over calls of mixed sizes, with full-length weights and one pass
per level, then with this kernel: 70 000 nodes took 21 minor faults and
2.4-2.7 ms, then 8 and 2.0-2.3 ms; 280 000 nodes 77 faults and 8.5-9.9 ms,
then 41 and 8.2-8.8 ms; 480 000 nodes 80 faults and 13-17 ms, then 39 and
14-15 ms; 3.2 M nodes 2 060 faults and 115-141 ms, then 433 and 101-117 ms.
At 4 000 nodes the two are within run-to-run noise.  The first 3.2 M-node
call of a fresh process took 30 700 faults, then 11 100.  Its
``tracemalloc`` peak is 26.2 MiB (8 bytes a node and 1.8 MiB) instead of
50.9 MiB, and ``frac oracle`` at that size peaks at 56.0 MB of RSS instead
of 81.0 MB.  Of that, keeping the fold's block tails as float64 arrays
rather than Python floats saves 2.3 MiB of the peak and 2.7 MB of RSS; a
level of one block still lists its tail once, as ``math.fsum`` reads a
list fastest.  When blocks came in, the ``gl_oracle`` benchmark ran fastest
at 2^15 and 2^16 among 2^14 ... 2^17; 2^15 is kept for its smaller buffers.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

# Folding stops once this many values remain; ``math.fsum`` over a list that
# short costs about as much as one more numpy level.
FSUM_TAIL = 512

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
    after the carried 1.0, so every weight is the same chain of roundings as
    one ``cumprod`` over all the ratios.
    """
    b = min(count, BLOCK)
    buf = np.empty(b + 1)
    buf[0] = 1.0
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
        if not lo:
            buf[1] = 1.0
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


def _fold(a: np.ndarray, m: int, half: np.ndarray, bb_buf: np.ndarray,
          slot: np.ndarray, tails: list, err_sums: list) -> None:
    """Fold the products ``a[:m]`` in halves with TwoSum, destroying them.

    ``half`` and ``bb_buf`` are scratch of at least ``(m + 1) // 2`` and
    ``m // 2`` values.  The values left at the end, at most ``FSUM_TAIL``,
    are copied to the start of ``slot`` and that view goes to ``tails``;
    the sum of each halving's exact rounding errors goes to ``err_sums``.
    :func:`_total` of the two is the sum of the products to the bound of
    :func:`gl_weighted_sum`.
    """
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
    slot[:m] = a[:m]
    tails.append(slot[:m])


def _total(tails: list, err_sums: list) -> float:
    """``math.fsum`` of the blocks' remaining values, then of the error
    sums: tails first, as ``math.fsum`` runs faster so.  The tails stay
    float64 arrays (8 bytes a value, against 32 as Python floats) and are
    listed one block at a time."""
    if len(tails) == 1:  # one block: one list, which math.fsum reads fastest
        return math.fsum(tails[0].tolist() + err_sums)
    return math.fsum(chain(chain.from_iterable(t.tolist() for t in tails), err_sums))


def _buffers(b: int, folds: int) -> tuple[np.ndarray, ...]:
    """The products and the fold's two scratch buffers, for blocks of b, and
    a ``FSUM_TAIL`` slot for each fold's remaining values.  Slots of one
    call-long array, rather than a copy per fold, keep the kernel at a few
    allocations a call: with a copy per fold, runs of the 20 s
    ``gl_oracle`` benchmark peaked at up to 45.9 MB of RSS, with slots at
    up to 43.4 MB."""
    return np.empty(b), np.empty((b + 1) // 2), np.empty(b // 2), np.empty(folds * FSUM_TAIL)


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
    prods, half, bb_buf, store = _buffers(min(n, BLOCK), -(-n // BLOCK))
    tails, err_sums = [], []
    for lo in range(0, n, BLOCK):
        m = min(BLOCK, n - lo)
        _fold(np.multiply(weights[lo:lo + m], fvals[lo:lo + m], prods[:m]), m,
              half, bb_buf, store[lo // BLOCK * FSUM_TAIL:], tails, err_sums)
    # for n <= BLOCK this is the unblocked kernel's fsum
    return _total(tails, err_sums)


def gl_level_sums(q: float, vals: np.ndarray, strides: Sequence[int]) -> list[float]:
    """The GL sum of every strided level of ``vals``, in one pass.

    The level of stride s is ``vals[::s]`` (``vals`` is not empty), its
    n_s = ceil(len(vals) / s) samples weighted by ``gl_weights(q, n_s)``, and its sum is
    ``gl_weighted_sum`` of the two, bit for bit.  Each weight block is
    computed once and used at once by every level that reaches it; each
    level folds its own blocks as :func:`gl_weighted_sum` would, so only the
    weight block and the fold's buffers are block-sized and nothing but
    ``vals`` is as long as the grid.

    For q > 0, the first :data:`HEAD` samples of every level are summed as
    differences from ``f0 = vals[0]`` and ``f0`` times the ``math.fsum`` of
    their weights is added to the level's sum: the same GL sum, with the
    rounding of large nearly cancelling products near the first sample gone.
    """
    n = vals.shape[0]
    counts = [-(-n // s) for s in strides]
    top = max(counts)
    prods, half, bb_buf, store = _buffers(min(top, BLOCK), sum(-(-c // BLOCK) for c in counts))
    slots = iter(range(0, store.shape[0], FSUM_TAIL))
    parts = [([], []) for _ in strides]
    f0, back = float(vals[0]), []
    for lo, w in zip(range(0, top, BLOCK), _weight_blocks(q, top)):
        for s, n_s, (tails, err_sums) in zip(strides, counts, parts):
            if n_s <= lo:
                continue
            m = min(BLOCK, n_s - lo)
            a = np.multiply(w[:m], vals[lo * s:(lo + m) * s:s], prods[:m])
            if not lo and q > 0:
                j = min(HEAD, m)
                np.subtract(vals[:j * s:s], f0, a[:j])
                np.multiply(w[:j], a[:j], a[:j])
                back.append(f0 * math.fsum(w[:j].tolist()))
            _fold(a, m, half, bb_buf, store[next(slots):], tails, err_sums)
    sums = [_total(tails, err_sums) for tails, err_sums in parts]
    return [total + b for total, b in zip(sums, back)] if q > 0 else sums


def backend() -> str:
    """Name of the summation backend, always ``"numpy"``.  Kept only because
    the benchmark under ``perfbench/`` reports it; it goes with the benchmark
    change of ROADMAP item 5."""
    return "numpy"
