"""Numeric differintegration of black-box scalar functions.

This is the independent check on every symbolic result, and the evaluation
path for charts whose maps fall outside the power-product class.  The scheme
is the backward Grunwald-Letnikov sum

    D^q f(x)  ~  h^(-q) * sum_{k=0..N} (-1)^k binom(q, k) f(x - k h),

first-order accurate in h, optionally sharpened by Richardson extrapolation
assuming the leading error is O(h).  Functions with an integrable endpoint
singularity (for example t^(-1/2) integrated from 0) are sampled starting at
a + h: the endpoint node is dropped when the function is not finite there.

A Richardson call samples f once, on its finest grid, and computes the GL
weights once: the coarser grids are strided slices of those samples (their
step is the fine step times a power of two, so the nodes are bit for bit the
same) and their weights are a prefix of the fine weights.  The sums use the
compensated kernel in :mod:`fracforms.kernels`.

The samples and the weights are the only arrays as long as the finest grid
(16 bytes a node).  f is called on one block of :data:`~fracforms.kernels.BLOCK`
nodes at a time, each node once, and the values are written into the one
sample array; node arrays, f's temporaries and the kernel's buffers are all
block-sized.  A non-finite sample stops the sampling at its block, and the
error names the first such node.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonConvergenceWarning, QuadratureDomainError
from .kernels import BLOCK, gl_weighted_sum, gl_weights
from .symbolic import Context, Expr

MIN_STEPS = 10


def _sample(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """Evaluate f on the node array, vectorized when the callable allows it."""
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
            except Exception:
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
    sums = []
    for lvl in range(levels):
        stride = 1 << (levels - 1 - lvl)
        sums.append(gl_weighted_sum(vals[:end:stride], weights) * (h * stride) ** (-q))
    return sums


def gl_deriv(f: Callable, q: float, x: float, a: float = 0.0, h: float = 1e-4) -> float:
    """Grunwald-Letnikov differintegral of order q at x, anchored at a.

    ``h`` is nudged to the nearest value that divides x - a into a whole
    number of steps (at least :data:`MIN_STEPS`).
    """
    if not x > a:
        raise ValueError(f"evaluation point must sit above the initial point ({x} <= {a})")
    if h <= 0:
        raise ValueError("step must be positive")
    steps = int(round((x - a) / h))
    if steps < MIN_STEPS:
        raise ValueError(
            f"step {h} leaves only {steps} nodes on [{a}, {x}]; need at least {MIN_STEPS}"
        )
    return _gl_levels(f, float(q), float(x), float(a), steps, 1)[0]


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
    if not x > a:
        raise ValueError(f"evaluation point must sit above the initial point ({x} <= {a})")
    steps0 = max(MIN_STEPS, int(round((x - a) / h0)))
    rows: list[list[float]] = []
    for lvl, plain in enumerate(_gl_levels(f, float(q), float(x), float(a), steps0, levels)):
        row = [plain]
        for j in range(1, lvl + 1):
            factor = 2.0 ** j
            row.append((factor * row[j - 1] - rows[lvl - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
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
