"""Numeric differintegration of black-box scalar functions.

This is the independent check on every symbolic result, and the evaluation
path of numeric chart entries: :mod:`fracforms.charts` evaluates a chart's
Expr forward maps through :func:`expr_evaluable`, never through the symbolic
evaluator.  The scheme is the backward Grunwald-Letnikov sum

    D^q f(x)  ~  h^(-q) * sum_{k=0..N} (-1)^k binom(q, k) f(x - k h),

first-order accurate in h, optionally sharpened by Richardson extrapolation
assuming the leading error is O(h).  :func:`gl_deriv` and :func:`richardson`
share one step rule, :func:`_check_grid`'s: h is rounded to divide x - a
into a whole number of steps, at least :data:`MIN_STEPS` of them, so a
coarser step is refined, not refused.  Functions with an integrable endpoint
singularity (for example t^(-1/2) integrated from 0) are sampled starting at
a + h: the endpoint node is dropped when the function is not finite there.

Extrapolation has one table, :func:`richardson_table`, over a list of error
exponents at step ratio 2: :func:`richardson` passes 1, 2, 3, ... and the
central differences of :mod:`fracforms.charts` pass 2, 4, 6.

A Richardson call samples f once, on its finest grid, and computes the GL
weights once: the coarser grids are strided slices of those samples (their
step is the fine step times a power of two, so the nodes are bit for bit the
same) and their weights are a prefix of the fine weights.  The sums use the
kernel in :mod:`fracforms.kernels`, one ``np.add.reduce`` per block of
products, which sums every level in one pass over the weights
(:func:`~fracforms.kernels.gl_level_sums`).

For q > 0 the kernel sums the first :data:`~fracforms.kernels.HEAD`
samples of every level as f - f(x), so the rounding of the large, nearly
cancelling products near x stays below the sum itself (see
:mod:`fracforms.kernels`).  A block sum, a scale h^(-q), a scaled level,
or a Richardson extrapolant or error estimate beyond the largest double is
a :class:`~fracforms.errors.QuadratureDomainError` that names the order
and the finest step, with no numpy warning before it.  So is a point at or
below the initial point: the oracle owns that rule, and a numeric chart
entry reports it under the chart's name.  A finest grid of more than
:data:`_MAX_NODES` nodes is a ``ValueError`` that names the nodes, the
bytes, the step and the levels, raised before anything is allocated.
:func:`expr_univariate` takes a point with one entry per coordinate and
rejects any other length with a ``ValueError``.

The samples are the only array as long as the finest grid (8 bytes a
node).  f is called on one block of :data:`~fracforms.kernels.BLOCK` nodes
at a time, each node once: the nodes x - h k are computed into the block of
the sample array that f's values then overwrite.  The weights come a block
at a time too, and each weight block is used at once by every level that
reaches it, so the weights, f's temporaries and the kernel's buffers are
all block-sized.  Only the sample at t = a may be non-finite.  Sampling
runs to the end of the grid with no check of its own: a non-finite sample
makes its fine-level block sum non-finite, since its product with any
weight, an exact zero of a whole order included, is not finite.  So the
samples are scanned only when a sum overflows, and then the first
non-finite node is named before the overflow would be.
:func:`expr_evaluable` builds each term's values in place, in the order of
the plain formula (its sum starts at the first term), so f itself
allocates few block-sized temporaries.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonConvergenceWarning, QuadratureDomainError
from .kernels import BLOCK, gl_level_sums
from .symbolic import Context, Expr

MIN_STEPS = 10

# The most nodes a finest grid may have: its samples, the one array as long
# as the grid, then take 1 GiB.  Far finer than any step the oracle needs,
# and it turns a step that would ask for tens of gigabytes into an error.
_MAX_NODES = 1 << 27


def _on_array(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray | None:
    """f(nodes) as a float64 array, or None when f does not take the array:
    the call raises (a ``QuadratureDomainError`` propagates) or returns
    another shape.  The one test of a vectorized callable, here and in the
    central differences of :mod:`fracforms.charts`."""
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(f(nodes), dtype=np.float64)
    except QuadratureDomainError:
        raise
    except Exception:
        return None
    return vals if vals.shape == nodes.shape else None


def _sample(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """Evaluate f on the node array, vectorized when the callable allows it.

    Otherwise f is called node by node, and a node where it raises an
    arithmetic, value or type error (a float power of a negative base is a
    complex, which ``float`` rejects) samples as nan; any other exception
    propagates.
    """
    vals = _on_array(f, nodes)
    if vals is not None:
        return vals
    out = np.empty(nodes.shape[0], dtype=np.float64)
    for i, t in enumerate(nodes):
        try:
            out[i] = float(f(float(t)))
        except (ArithmeticError, ValueError, TypeError):
            out[i] = np.nan
    return out


def _gl_levels(f, q: float, x: float, a: float, steps: int, levels: int) -> list[float]:
    """Plain GL sums with steps, 2*steps, ..., steps*2^(levels-1) intervals.

    f is sampled once on the finest grid; level lvl takes every
    2^(levels-1-lvl)-th sample, so every level ends on the node t = a and
    drops it alike when f is singular there.  The samples are scanned only
    when a sum overflows: a non-finite sample always makes its fine-level
    block sum non-finite (its product with a weight, zero or not, is), so
    the first such node is named before an overflow would be reported.
    """
    fine = steps << (levels - 1)
    h = (x - a) / fine
    vals = _samples(f, x, h, fine)
    strides = [1 << (levels - 1 - lvl) for lvl in range(levels)]
    try:
        sums = gl_level_sums(q, vals, strides)
        scaled = [total * (h * s) ** (-q) for total, s in zip(sums, strides)]
        if all(map(math.isfinite, scaled)):
            return scaled
    except OverflowError:  # a block sum, or the scale step^-order
        pass
    # the sample at t = a is dropped by now if it is not finite: any other is undefined
    ok = np.isfinite(vals)
    if not ok.all():
        raise QuadratureDomainError(
            f"integrand undefined at sample node t={x - h * int(np.argmin(ok))}")
    # an overflow above, or a finite sum times a finite scale beyond the largest double
    raise _overflow(q, h)


def _overflow(q: float, h: float) -> QuadratureDomainError:
    """The error of a GL value of order q at finest step h beyond the
    largest double."""
    return QuadratureDomainError(f"GL differintegral of order {q} at step {h} overflows a double")


def _samples(f, x: float, h: float, fine: int) -> np.ndarray:
    """f at the nodes x - h k, k = 0 ... fine, a block of nodes at a time.

    The last node, t = a, is left out when f is not finite there.  Nothing
    else is checked here: sampling runs to the end of the grid, and
    :func:`_gl_levels` scans the samples for a non-finite one only when a
    sum overflows.

    The block-sized node counter dies on return, before the kernel
    allocates its buffers, so glibc reuses its memory for them.  Held
    through the sums, it grew the heap past glibc's trim threshold, and the
    heap was handed back and faulted in again on every call: about 60 minor
    faults per polar Jacobian of ``charts_transform``, against none.
    """
    vals = np.empty(fine + 1, dtype=np.float64)
    k = np.arange(min(fine + 1, BLOCK), dtype=np.float64)
    # f's own overflow or invalid warnings are silenced, node-by-node calls
    # included: a non-finite sample is named by the scan, and one at t = a
    # is dropped on return as the initial point's singularity
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, fine + 1, BLOCK):
            if lo:
                np.add(k, BLOCK, k)
            # the block's nodes x - h k, computed where its samples then go
            blk = vals[lo:lo + BLOCK]
            np.multiply(h, k[:blk.shape[0]], blk)
            np.subtract(x, blk, blk)
            blk[...] = _sample(f, blk)
    # f may be singular at the initial point only; the sums start at a + h then
    return vals if math.isfinite(vals[fine]) else vals[:fine]


def _check_grid(q: float, x: float, a: float, h: float, levels: int) -> int:
    """The coarsest grid's interval count: (x - a)/h rounded, and at least
    :data:`MIN_STEPS`, so a coarser step is refined rather than refused.

    First it rejects what no GL sum is defined for: an order that is not
    finite or a step that is not positive and finite (``ValueError``), and
    a point not above the initial point (the oracle's domain error,
    :class:`~fracforms.errors.QuadratureDomainError`).  A finest grid of
    more than :data:`_MAX_NODES` nodes, counted in floats before any
    rounding, is refused as a ``ValueError`` too, before anything is
    allocated."""
    if not math.isfinite(q):
        raise ValueError(f"GL order must be finite, got {q}")
    if not x > a:
        raise QuadratureDomainError(
            f"evaluation point must sit above the initial point ({x} <= {a})")
    if not 0 < h < math.inf:
        raise ValueError(f"GL step must be positive and finite, got {h}")
    nodes = (x - a) / h * 2.0 ** (levels - 1)
    if nodes > _MAX_NODES:
        raise ValueError(
            f"GL grid of {nodes:.3g} nodes ({8 * nodes:.3g} bytes of samples) at step {h} "
            f"and {levels} levels exceeds the cap of {_MAX_NODES} nodes")
    return max(MIN_STEPS, int(round((x - a) / h)))


def gl_deriv(f: Callable, q: float, x: float, a: float = 0.0, h: float = 1e-4) -> float:
    """Grunwald-Letnikov differintegral of order q at x, anchored at a.

    ``h`` is nudged to the nearest value that divides x - a into a whole
    number of steps, and refined to at least :data:`MIN_STEPS` steps, as
    :func:`richardson` does (:func:`_check_grid`).
    """
    steps = _check_grid(q, x, a, h, 1)
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
    estimate.  An extrapolant or an estimate beyond the largest double is
    the :class:`~fracforms.errors.QuadratureDomainError` of an overflowing
    plain sum.
    """
    if not 2 <= levels <= 5:
        raise ValueError(f"levels must be between 2 and 5, got {levels}")
    steps0 = _check_grid(q, x, a, h0, levels)
    q, x, a = float(q), float(x), float(a)
    plain = _gl_levels(f, q, x, a, steps0, levels)
    rows = richardson_table(plain, range(1, levels))
    value = rows[-1][-1]
    estimate = abs(rows[-1][-1] - rows[-1][-2])
    if not (math.isfinite(value) and math.isfinite(estimate)):
        raise _overflow(q, (x - a) / (steps0 << (levels - 1)))
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


def expr_evaluable(e: Expr, ctx: Context) -> Callable:
    """Vectorized numpy evaluation of an expression.

    Unlike :func:`fracforms.symbolic.eval_expr`, domain violations surface as
    non-finite samples for the quadrature layer to police, which is what the
    endpoint-singularity policy needs.  It deliberately does not reuse the
    symbolic evaluator (:func:`fracforms.symbolic.term_values`): the oracle
    shares no code with the symbolic path it checks, so it reads only the
    expression's coefficient and exponent arrays.
    """
    a = _offsets(ctx.initial_points)
    terms = list(zip(e.coeffs.tolist(), e.exponents.tolist()))

    def f(pt):
        bases = [np.asarray(pt[i], dtype=np.float64) for i in range(len(a))]
        bases = [b if ai is None else b - ai for b, ai in zip(bases, a)]
        total = None  # the first term, then the sum of the terms so far
        with np.errstate(all="ignore"):
            for c, exps in terms:
                v = np.float64(c)
                for base, p in zip(bases, exps):
                    if p != 0.0:
                        v = _into(operator.mul, v, np.power(base, p))
                total = v if total is None else _into(operator.add, total, v)
        if total is None:  # no terms
            total = 0.0
        if type(total) is not np.ndarray:  # constant along every array coordinate
            shape = np.broadcast(*bases).shape
            total = np.full(shape, total) if shape else total
        return total

    return f


def _offsets(initial_points: Sequence[float]) -> list[np.float64 | None]:
    """Each initial point as the offset a coordinate's base subtracts, or
    None where it is +0.0: t - 0.0 is t, so the subtraction is skipped
    (t - (-0.0) is not: it turns t = -0.0 into +0.0).  The one rule, here
    and in the numeric chart integrands of :mod:`fracforms.charts`."""
    return [np.float64(ai) if ai or math.copysign(1.0, ai) < 0 else None
            for ai in initial_points]


# the ufunc of each operator _into takes, which can write into an operand
_UFUNCS = {operator.mul: np.multiply, operator.add: np.add}


def _into(op, x, y):
    """``op(x, y)``, written over y, or else x, when that is an array of the
    result's shape; both are temporaries of the evaluation calling this.
    Two scalars take the operator itself, which is faster than a ufunc."""
    if type(y) is np.ndarray:
        if type(x) is not np.ndarray or x.shape == y.shape:
            return _UFUNCS[op](x, y, y)
    elif type(x) is np.ndarray:
        return _UFUNCS[op](x, y, x)
    return op(x, y)


def expr_univariate(e: Expr, ctx: Context, coord: int | str, point: Sequence[float]) -> Callable:
    """Freeze every coordinate but one at ``point``, which has one entry per
    coordinate, returning a vectorized t -> f(t)."""
    if len(point) != ctx.n:
        raise ValueError(f"point has {len(point)} coordinates, context has {ctx.n}")
    return freeze_all_but(expr_evaluable(e, ctx), ctx.index(coord), point)
