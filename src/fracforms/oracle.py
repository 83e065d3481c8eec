"""Numeric differintegration of black-box scalar functions.

This is the independent check on every symbolic result, and the evaluation
path of numeric chart entries: :mod:`fracforms.charts` evaluates a chart's
Expr forward maps through :func:`expr_evaluable`, never through the symbolic
evaluator.  The scheme is the backward Grunwald-Letnikov sum

    D^q f(x)  ~  h^(-q) * sum_{k=0..N} (-1)^k binom(q, k) f(x - k h),

first-order accurate in h, optionally sharpened by Richardson extrapolation
assuming the leading error is O(h).  Functions with an integrable endpoint
singularity (for example t^(-1/2) integrated from 0) are sampled starting at
a + h: the endpoint node is dropped when the function is not finite there.

Extrapolation has one table, :func:`richardson_table`, over a list of error
exponents at step ratio 2: :func:`richardson` passes 1, 2, 3, ... and the
central differences of :mod:`fracforms.charts` pass 2, 4, 6.

A Richardson call samples f once, on its finest grid, and computes the GL
weights once: the coarser grids are strided slices of those samples (their
step is the fine step times a power of two, so the nodes are bit for bit the
same) and their weights are a prefix of the fine weights.  The sums use the
compensated kernel in :mod:`fracforms.kernels`.

The kernel sums the products w_k f(x - k h) as rounded, with no error
beyond that rounding worth naming.  For q > 0 the weights nearly cancel, the sum is about h^q D^q f(x), and the
first few products are far larger than that: at h = 1e-3 and q = 1.88 the
rounding of w_0 x, w_1 (x - h), ... moved D^q t by 1e-9 in relative terms.
So the first :data:`HEAD` samples of every level are summed as f - f(x):
the difference is exact near x, where f(x - k h) is within a factor of two of
f(x), and its products are small.  f(x) times the ``math.fsum`` of those
rounded weights is added back, so a level is still the GL sum of its samples
with the weights it uses, now with rounding on the order of the sum itself.
For q <= 0 the weights do not cancel and the samples are summed as they are.

The samples and the weights are the only arrays as long as the finest grid
(16 bytes a node).  f is called on one block of :data:`~fracforms.kernels.BLOCK`
nodes at a time, each node once, and the values are written into the one
sample array; node arrays, f's temporaries and the kernel's buffers are all
block-sized.  A non-finite sample stops the sampling at its block, and the
error names the first such node.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonConvergenceWarning, QuadratureDomainError
from .kernels import BLOCK, gl_weighted_sum, gl_weights
from .symbolic import Context, Expr

MIN_STEPS = 10

# Samples nearest x that a GL sum of order q > 0 takes as f - f(x); every
# level has at least MIN_STEPS samples, so at least HEAD.
HEAD = 8


def _sample(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """Evaluate f on the node array, vectorized when the callable allows it.

    Otherwise f is called node by node, and a node where it raises an
    arithmetic, value or type error (a float power of a negative base is a
    complex, which ``float`` rejects) samples as nan; any other exception
    propagates.
    """
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(f(nodes), dtype=np.float64)
        if vals.shape != nodes.shape:
            raise ValueError
        return vals
    except QuadratureDomainError:
        raise
    except Exception:
        out = np.empty(nodes.shape[0], dtype=np.float64)
        for i, t in enumerate(nodes):
            try:
                out[i] = float(f(float(t)))
            except (ArithmeticError, ValueError, TypeError):
                out[i] = np.nan
        return out


def _gl_levels(f, q: float, x: float, a: float, steps: int, levels: int) -> list[float]:
    """Plain GL sums with steps, 2*steps, ..., steps*2^(levels-1) intervals.

    f is sampled once on the finest grid, a block of nodes at a time; level
    lvl takes every 2^(levels-1-lvl)-th sample, so every level ends on the
    node t = a and drops it alike when f is singular there.
    """
    fine = steps << (levels - 1)
    h = (x - a) / fine
    vals = np.empty(fine + 1, dtype=np.float64)
    end = fine + 1
    for lo in range(0, end, BLOCK):
        blk = vals[lo:lo + BLOCK]
        blk[...] = _sample(f, x - h * np.arange(lo, lo + blk.shape[0], dtype=np.float64))
        ok = np.isfinite(blk)
        if not ok.all():
            # only the initial-point node may be singular; start at a + h then
            k = lo + int(np.argmin(ok))
            if k < fine:
                raise QuadratureDomainError(f"integrand undefined at sample node t={x - h * k}")
            end = fine
    weights = gl_weights(q, end)
    if q > 0:
        f0 = float(vals[0])
        near_weights = math.fsum(weights[:HEAD].tolist())
    sums = []
    for lvl in range(levels):
        stride = 1 << (levels - 1 - lvl)
        level = vals[:end:stride]
        if q > 0:
            # the level's first HEAD samples are summed as f - f(x), then put
            # back for the next level, so it is summed as on its own grid
            near = level[:HEAD].copy()
            level[:HEAD] -= f0
            total = gl_weighted_sum(level, weights) + f0 * near_weights
            level[:HEAD] = near
        else:
            total = gl_weighted_sum(level, weights)
        sums.append(total * (h * stride) ** (-q))
    return sums


def _check_grid(q: float, x: float, a: float, h: float) -> None:
    """Reject what no GL sum is defined for: an order that is not finite, a
    point not above the initial point, a step that is not positive and finite."""
    if not math.isfinite(q):
        raise ValueError(f"GL order must be finite, got {q}")
    if not x > a:
        raise ValueError(f"evaluation point must sit above the initial point ({x} <= {a})")
    if not 0 < h < math.inf:
        raise ValueError(f"GL step must be positive and finite, got {h}")


def gl_deriv(f: Callable, q: float, x: float, a: float = 0.0, h: float = 1e-4) -> float:
    """Grunwald-Letnikov differintegral of order q at x, anchored at a.

    ``h`` is nudged to the nearest value that divides x - a into a whole
    number of steps (at least :data:`MIN_STEPS`).
    """
    _check_grid(q, x, a, h)
    steps = int(round((x - a) / h))
    if steps < MIN_STEPS:
        raise ValueError(
            f"step {h} leaves only {steps} nodes on [{a}, {x}]; need at least {MIN_STEPS}"
        )
    return _gl_levels(f, float(q), float(x), float(a), steps, 1)[0]


def richardson_table(values: Sequence[float], exponents: Sequence[float]) -> list[list[float]]:
    """Richardson table of values computed at steps h, h/2, h/4, ...

    Row l holds ``values[l]`` and its extrapolants; column j removes the
    error term h^exponents[j-1] from the column before it, so the table
    needs ``len(values) - 1`` exponents.  ``rows[-1][-1]`` is the most
    extrapolated value.
    """
    rows: list[list[float]] = []
    for lvl, plain in enumerate(values):
        row = [plain]
        for j in range(1, lvl + 1):
            factor = 2.0 ** exponents[j - 1]
            row.append((factor * row[j - 1] - rows[lvl - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
    return rows


class RichardsonResult(NamedTuple):
    """Extrapolated value with a first-omitted-column error estimate."""

    value: float
    error_estimate: float
    converged: bool


def richardson(f: Callable, q: float, x: float, a: float = 0.0, h0: float = 1e-4,
               levels: int = 3) -> RichardsonResult:
    """Richardson-extrapolated GL value assuming an O(h) leading error.

    Runs the plain sum at h0, h0/2, ..., h0/2^(levels-1), all from one
    sampling of f on the finest grid, and eliminates error orders 1, 2, ...
    down the triangular table.  Warns (and reports ``converged=False``) when
    the last two diagonal entries disagree by more than 10x the error
    estimate.
    """
    if not 2 <= levels <= 5:
        raise ValueError(f"levels must be between 2 and 5, got {levels}")
    _check_grid(q, x, a, h0)
    steps0 = max(MIN_STEPS, int(round((x - a) / h0)))
    plain = _gl_levels(f, float(q), float(x), float(a), steps0, levels)
    rows = richardson_table(plain, range(1, levels))
    value = rows[-1][-1]
    estimate = abs(rows[-1][-1] - rows[-1][-2])
    diag_step = abs(rows[-1][-1] - rows[-2][-1])
    converged = diag_step <= 10.0 * estimate + 1e-13 * (1.0 + abs(value))
    if not converged:
        warnings.warn(
            f"extrapolants moved by {diag_step:.3e}, over 10x the estimate {estimate:.3e}",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return RichardsonResult(value, estimate, converged)


def freeze_all_but(f: Callable, coord: int, point: Sequence[float]) -> Callable:
    """t -> f(point with coordinate ``coord`` set to t); t may be an array."""
    fixed = [np.float64(v) for v in point]

    def g(t):
        args = list(fixed)
        args[coord] = t
        return f(args)

    return g


def gl_partial(f: Callable, coord: int, q: float, point: Sequence[float],
               a: float = 0.0, h: float = 1e-4) -> float:
    """GL partial of a multivariate evaluable along one coordinate line."""
    return gl_deriv(freeze_all_but(f, coord, point), q, float(point[coord]), a, h)


def richardson_partial(f: Callable, coord: int, q: float, point: Sequence[float],
                       a: float = 0.0, h0: float = 1e-4, levels: int = 3) -> RichardsonResult:
    """Richardson-extrapolated GL partial along one coordinate line."""
    return richardson(freeze_all_but(f, coord, point), q, float(point[coord]), a, h0, levels)


def expr_evaluable(e: Expr, ctx: Context) -> Callable:
    """Vectorized numpy evaluation of an expression.

    Unlike :func:`fracforms.symbolic.eval_expr`, domain violations surface as
    non-finite samples for the quadrature layer to police, which is what the
    endpoint-singularity policy needs.  It deliberately does not reuse the
    symbolic evaluator (:func:`fracforms.symbolic.term_values`): the oracle
    shares no code with the symbolic path it checks, so it reads only the
    expression's coefficient and exponent arrays.
    """
    a = np.asarray(ctx.initial_points, dtype=np.float64)
    terms = list(zip(e.coeffs.tolist(), e.exponents.tolist()))

    def f(pt):
        bases = [np.asarray(pt[i], dtype=np.float64) - a[i] for i in range(len(a))]
        total = 0.0
        with np.errstate(all="ignore"):
            for c, exps in terms:
                v = np.float64(c)
                for base, p in zip(bases, exps):
                    if p != 0.0:
                        v = v * np.power(base, p)
                total = total + v
        return total

    return f


def expr_univariate(e: Expr, ctx: Context, coord: int | str, point: Sequence[float]) -> Callable:
    """Freeze every coordinate but one, returning a vectorized t -> f(t)."""
    return freeze_all_but(expr_evaluable(e, ctx), ctx.index(coord), point)
