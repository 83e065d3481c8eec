"""Coordinate transformations for fractional differentials.

A chart carries both directions of a coordinate change explicitly (no
automatic inversion) plus the initial points on each side.  The fractional
transformation matrix is

    J_i^k = 1/gamma(nu+1) * D_(y_i)^nu [ prod_{j != k} (x_j(y) - a_j)^(nu-m)
                                          * (x_k(y) - a_k)^nu ],

computed symbolically by the power rule, or numerically at a y-point:
Richardson-extrapolated GL sums along the coordinate line for fractional
orders, Richardson-extrapolated central differences for whole orders (where
the differintegral is the ordinary local derivative), with the sums
extrapolated by the oracle's code.  The matrix is stored with rows indexed by
k (the source differential) and columns by i (the target differential), so
at nu=1 row k is the gradient of x_k.

:func:`jacobian` alone picks between the two, and :func:`metric`,
:func:`inverse_residual` and the CLI's chart verbs call it: symbolic entries
(evaluated at the point when one is given) whenever every forward map is an
Expr and the power rule closes on them, which needs single-term maps or a
whole order; numeric entries at the point otherwise.  Numeric entries of an
Expr chart are a property of the chart, not a flag: :meth:`Chart.black_box`
(the CLI's ``--numeric``) evaluates its maps as black boxes.  A
:class:`ChartMatrix` derives ``mode`` ("numeric" exactly when it has a
``point``) and ``m`` from its fields.  :func:`transform_form` raises the maps
to powers with :meth:`Expr.pow`, which expands whole powers of multi-term maps.

For n >= 2 and non-whole nu the product over j != k does not drop out of the
derivation, so the forward and reverse matrices need not be inverse to each
other; ``inverse_residual`` reports that defect instead of asserting it away.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NegativeQuadraticFormError, QuadratureDomainError, UnsupportedError
from .forms import DiffFactor, Form, WedgeWord
from .oracle import _on_array, expr_evaluable, freeze_all_but, richardson, richardson_table
from .rl import power_rule_map
from .specialfn import gamma_ratio, rgamma, snap_int, whole_ceil
from .symbolic import (
    Context,
    Expr,
    eval_expr,
    fmt_number,
    monomial,
    print_expr,
)

Evaluable = Expr | Callable[[Sequence[float]], float]


@dataclass(frozen=True)
class Chart:
    """Both directions of a coordinate change x(y) / y(x).

    ``forward`` and ``inverse`` each hold n entries, either an Expr over the
    opposite context or a black-box callable taking the full coordinate
    vector.  ``ctx_x.initial_points`` is a, ``ctx_y.initial_points`` is its
    image in the curvilinear coordinates.
    """

    name: str
    ctx_x: Context
    ctx_y: Context
    forward: tuple
    inverse: tuple

    @property
    def n(self) -> int:
        return self.ctx_x.n

    @property
    def is_symbolic(self) -> bool:
        return all(isinstance(f, Expr) for f in self.forward)

    def x_of(self, y_point: Sequence[float]) -> list[float]:
        return [_call(f, self.ctx_y, y_point) for f in self.forward]

    def y_of(self, x_point: Sequence[float]) -> list[float]:
        return [_call(g, self.ctx_x, x_point) for g in self.inverse]

    def reversed(self) -> "Chart":
        return Chart(self.name + "~rev", self.ctx_y, self.ctx_x,
                     self.inverse, self.forward)

    def black_box(self) -> "Chart":
        """The same chart with each Expr map, in both directions, replaced by
        its numpy evaluation (:func:`oracle.expr_evaluable`), so that
        :func:`jacobian` takes numeric entries of it."""
        def box(maps, ctx):
            return tuple(expr_evaluable(f, ctx) if isinstance(f, Expr) else f for f in maps)

        return replace(self, forward=box(self.forward, self.ctx_y),
                       inverse=box(self.inverse, self.ctx_x))

    def validate(self) -> None:
        """Check the inverse-after-forward identity to 1e-8 at the probe
        points a~ + 0.7 and a~ + 1.3, a~ the y-side initial points."""
        for shift in (0.7, 1.3):
            p = tuple(v + shift for v in self.ctx_y.initial_points)
            back = self.y_of(self.x_of(p))
            err = max(abs(b - v) for b, v in zip(back, p))
            if not err <= 1e-8:
                raise ValueError(
                    f"chart {self.name!r}: round trip at {tuple(p)} misses by {err:.3g}")


def _call(f: Evaluable, ctx: Context, point: Sequence[float]) -> float:
    if isinstance(f, Expr):
        return eval_expr(f, ctx, point)
    return float(f(point))


# --- registry ----------------------------------------------------------------

def _grid_contexts(n: int) -> tuple[Context, Context]:
    return (Context.of(tuple(f"x{i+1}" for i in range(n))),
            Context.of(tuple(f"y{i+1}" for i in range(n))))


def get_chart(spec: str, n: int | None = None) -> Chart:
    """Build a chart from its registry spec.

    Specs: ``polar``, ``identity``, ``scale:c1,...,cn``, and
    ``affine:a11,a12;a21,a22`` (rows separated by semicolons).
    """
    head, _, arg = spec.partition(":")
    head = head.strip()
    if head == "polar":
        ctx_x = Context.of(("x1", "x2"))
        ctx_y = Context.of(("r", "theta"))
        fwd = (lambda y: y[0] * np.cos(y[1]), lambda y: y[0] * np.sin(y[1]))
        inv = (lambda x: np.hypot(x[0], x[1]), lambda x: np.arctan2(x[1], x[0]))
        chart = Chart("polar", ctx_x, ctx_y, fwd, inv)
    elif head == "identity":
        n = n or 2
        ctx_x, ctx_y = _grid_contexts(n)
        fwd = tuple(monomial(ctx_y, 1.0, {i: 1.0}) for i in range(n))
        inv = tuple(monomial(ctx_x, 1.0, {i: 1.0}) for i in range(n))
        chart = Chart("identity", ctx_x, ctx_y, fwd, inv)
    elif head == "scale":
        try:
            cs = [float(v) for v in arg.split(",")] if arg else []
        except ValueError:
            raise ValueError(f"bad scale factors in chart spec {spec!r}") from None
        if not cs or any(c == 0 for c in cs):
            raise ValueError(f"scale chart needs nonzero factors, got {spec!r}")
        ctx_x, ctx_y = _grid_contexts(len(cs))
        fwd = tuple(monomial(ctx_y, c, {i: 1.0}) for i, c in enumerate(cs))
        inv = tuple(monomial(ctx_x, 1.0 / c, {i: 1.0}) for i, c in enumerate(cs))
        chart = Chart(spec, ctx_x, ctx_y, fwd, inv)
    elif head == "affine":
        try:
            mat = [[float(v) for v in row.split(",")] for row in arg.split(";")]
        except ValueError:
            raise ValueError(f"bad matrix in chart spec {spec!r}") from None
        m = np.asarray(mat, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"affine chart needs a square matrix, got shape {m.shape}")
        cond = np.linalg.cond(m)
        if not cond < 1.0 / np.finfo(np.float64).eps:
            raise ValueError(f"affine chart matrix is singular (condition number {cond:.3g})")
        minv = np.linalg.inv(m)
        k = m.shape[0]
        ctx_x, ctx_y = _grid_contexts(k)
        fwd = tuple(Expr(row, np.eye(k), k) for row in m)
        inv = tuple(Expr(row, np.eye(k), k) for row in minv)
        chart = Chart(spec, ctx_x, ctx_y, fwd, inv)
    else:
        raise ValueError(f"unknown chart {spec!r} "
                         "(available: polar, identity, scale:..., affine:...)")
    chart.validate()
    return chart


# --- the kernel-adapted coordinate functions ---------------------------------

def alpha_k(k: int | str, nu: float, ctx: Context) -> Expr:
    """(1/gamma(nu+1)) * prod_{i != k}(x_i - a_i)^(nu-m) * (x_k - a_k)^nu.

    Annihilated by the order-nu derivative along every coordinate but k;
    along k it differentiates to the product over i != k alone (exactly 1
    when n = 1 or nu is whole).
    """
    nu = float(nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"alpha_k order must be positive and finite, got {nu}")
    return monomial(ctx, rgamma(nu + 1.0), dict(_kernel_powers(ctx.index(k), nu, ctx.n)))


def _kernel_powers(k: int, nu: float, n: int) -> list[tuple[int, float]]:
    """(j, power of x_j - a_j) in alpha_k, the spectators j != k first:
    nu - m on each j != k and nu on k, or the whole m on k alone."""
    m = whole_ceil(nu)
    if snap_int(nu) is not None:
        return [(k, m)]
    return [(j, nu - m) for j in range(n) if j != k] + [(k, nu)]


# --- numeric differentiation helpers -----------------------------------------

_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _central_derivative(g: Callable[[float], float], t: float, order: int) -> float:
    """Richardson-extrapolated central difference, O(h^2) stencils at steps
    h0, h0/2, ... (four levels from 1e-2, or three from 5e-2 at order 3).

    g is called once, on the array of every level's stencil points, and the
    levels' ``math.fsum`` and the table then run over those values.  A g that
    does not take the array (the call raises or returns another shape, the
    test of :func:`oracle._on_array`) is called point by point instead, and
    its exceptions propagate.  numpy's array ``power`` and its scalar one
    differ by an ulp now and then, and the stencil amplifies that: against
    point-by-point calls, on five registry charts at 40 points each, every
    order-1 entry is the same bit for bit, 5 of 800 order-2 entries move by
    at most 5.1e-11 * max(1, |entry|), and 218 of 800 order-3 entries by at
    most 1.0e-9 * max(1, |entry|), the size of their own error against the
    symbolic entries.
    """
    if order not in _STENCILS:
        raise UnsupportedError(f"whole-order numeric derivatives go up to 3, got {order}")
    h0, levels = (1e-2, 4) if order < 3 else (5e-2, 3)
    stencil = _STENCILS[order]
    steps = [h0 / 2.0 ** lvl for lvl in range(levels)]
    nodes = [t + s * h for h in steps for s, _ in stencil]
    vals = _on_array(g, np.array(nodes))
    vals = [g(u) for u in nodes] if vals is None else vals.tolist()
    width = len(stencil)
    rows = [vals[lvl * width:(lvl + 1) * width] for lvl in range(levels)]
    diffs = [math.fsum(w * v for (_, w), v in zip(stencil, row)) / h ** order
             for row, h in zip(rows, steps)]
    return richardson_table(diffs, (2, 4, 6))[-1][-1]


def _integrand_numeric(chart: Chart, k: int, nu: float) -> Callable:
    """y-vector -> the alpha_k power product of the chart's black-box forward
    maps; domain violations become nan samples for the quadrature to police.

    This evaluator of its own pays for itself: evaluating the integrand
    through :func:`oracle.expr_evaluable` instead took ``charts_transform``
    p90 from 1.49 to 1.61 ms (4-5 alternating 20 s benchmark pairs at seed
    3, 2-vCPU Xeon, numpy 2.4.6)."""
    # None where a_j = +0.0: x - 0.0 is x, so the subtraction is skipped, as
    # in oracle.expr_evaluable
    a = [ai if ai or math.copysign(1.0, ai) < 0 else None
         for ai in chart.ctx_x.initial_points]
    maps = chart.forward
    powers = _kernel_powers(k, nu, chart.n)

    def g(y):
        val = None  # the first factor, then the product so far
        with np.errstate(all="ignore"):
            for j, p in powers:
                base = np.asarray(maps[j](y), dtype=np.float64)
                # a 0-d base becomes a scalar, as base - a_j does, so a scalar
                # call takes numpy's scalar power either way
                base = base[()] if a[j] is None else base - a[j]
                val = base ** p if val is None else val * base ** p
        return val

    return g


# --- the transformation matrix ------------------------------------------------

@dataclass(frozen=True)
class ChartMatrix:
    """n x n matrix of a chart at order nu: Exprs over the chart's y context
    without a ``point``, floats at ``point`` with one."""

    entries: tuple
    nu: float
    chart: Chart
    point: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return whole_ceil(self.nu)

    @property
    def mode(self) -> str:
        return "symbolic" if self.point is None else "numeric"

    def as_array(self) -> np.ndarray:
        if self.mode != "numeric":
            raise ValueError("symbolic matrix; call evaluate(point) first")
        return np.asarray(self.entries, dtype=np.float64)

    def evaluate(self, point: Sequence[float]):
        """The same matrix with its entries evaluated at a y-point."""
        if self.mode == "numeric":
            return self
        rows = tuple(
            tuple(eval_expr(e, self.chart.ctx_y, point) for e in row)
            for row in self.entries)
        return replace(self, entries=rows, point=tuple(float(v) for v in point))

    def to_json(self) -> dict:
        if self.mode == "numeric":
            rows = [[float(v) for v in row] for row in self.entries]
        else:
            rows = [[print_expr(e, self.chart.ctx_y) for e in row] for row in self.entries]
        return {
            "nu": self.nu,
            "m": self.m,
            "chart": self.chart.name,
            "point": list(self.point) if self.point is not None else None,
            "mode": self.mode,
            "entries": rows,
        }


class JacobianMatrix(ChartMatrix):
    """n x n fractional transformation matrix.

    ``entries[k][i]`` multiplies dy_i^nu in the expansion of dx_k^nu; at
    nu=1 row k is the classical gradient of x_k.  Symbolic entries are Exprs
    over the chart's y context, numeric entries are floats at ``point``.
    """


def format_matrix(rows, digits: int = 10) -> str:
    return "[" + ",".join(
        "[" + ",".join(fmt_number(float(v), digits) for v in row) + "]"
        for row in rows) + "]"


def _symbolic_entries(chart: Chart, nu: float) -> tuple:
    a = chart.ctx_x.initial_points
    rows = []
    for k in range(chart.n):
        integrand = functools.reduce(operator.mul, (
            (chart.forward[j] + Expr.constant(-a[j], chart.n)).pow(p)
            for j, p in _kernel_powers(k, nu, chart.n)))
        rows.append(tuple(
            power_rule_map(integrand, i, nu, chart.ctx_y,
                           extra_denominators=(nu + 1.0,))
            for i in range(chart.n)))
    return tuple(rows)


def _numeric_entries(chart: Chart, nu: float, point, h0: float, levels: int) -> tuple:
    atil = chart.ctx_y.initial_points
    whole = snap_int(nu)
    scale = rgamma(nu + 1.0)
    rows = []
    for k in range(chart.n):
        g = _integrand_numeric(chart, k, nu)
        row = []
        for i in range(chart.n):
            line = freeze_all_but(g, i, point)
            if whole is not None:
                val = _central_derivative(line, point[i], whole)
            else:
                try:
                    val = richardson(line, nu, point[i], atil[i], h0, levels).value
                except QuadratureDomainError as exc:
                    raise QuadratureDomainError(
                        f"chart {chart.name!r}, entry (k={k}, i={i}) along "
                        f"{chart.ctx_y.names[i]} at order {fmt_number(nu)}: {exc}") from exc
            row.append(val * scale)
        rows.append(tuple(row))
    return tuple(rows)


def jacobian(chart: Chart, nu: float, point: Sequence[float] | None = None,
             h0: float = 1e-3, levels: int = 3) -> JacobianMatrix:
    """Fractional transformation matrix of the chart at order nu.

    The entries are symbolic, evaluated at ``point`` when one is given,
    whenever every forward map is an Expr and the power rule closes on them
    (single-term maps or a whole order).  Otherwise they are numeric at
    ``point``, GL sums with base step ``h0`` and ``levels`` extrapolation
    levels; without a point that is an ``UnsupportedError`` for an Expr chart
    and a ``ValueError`` for a black-box one.  ``jacobian(chart.black_box(),
    ...)`` takes numeric entries of an Expr chart.  An order that
    :func:`~fracforms.specialfn.snap_int` snaps to a whole k is taken as k.
    """
    nu = float(nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"jacobian order must be positive and finite, got {nu}")
    whole = snap_int(nu)
    if whole is not None:
        nu = float(whole)
    if point is not None:
        point = tuple(float(v) for v in point)
        if len(point) != chart.n:
            raise ValueError(f"point has {len(point)} coordinates, chart has {chart.n}")
    if chart.is_symbolic:
        try:
            J = JacobianMatrix(_symbolic_entries(chart, nu), nu, chart)
            return J if point is None else J.evaluate(point)
        except UnsupportedError:
            if point is None:
                raise
    if point is None:
        raise ValueError(f"chart {chart.name!r} needs a point for numeric entries")
    return JacobianMatrix(_numeric_entries(chart.black_box(), nu, point, h0, levels),
                          nu, chart, point)


def polar_radial_closed_form(k: int, nu: float, r: float, theta: float) -> float:
    """Closed form of the polar dr^nu entry in row k.

    gamma(2nu-m+1)/(gamma(nu+1)*gamma(nu-m+1)) * trig^nu / cotrig^(m-nu)
    * r^(nu-m), with trig = cos for the first row and sin for the second.
    This is the golden reference the numeric matrix is checked against.
    """
    nu = float(nu)
    m = whole_ceil(nu)
    coeff = gamma_ratio((2 * nu - m + 1.0,), (nu + 1.0, nu - m + 1.0))
    tr, co = (math.cos(theta), math.sin(theta)) if k == 0 else \
             (math.sin(theta), math.cos(theta))
    return coeff * tr ** nu * co ** (nu - m) * r ** (nu - m)


# --- applying the matrix -------------------------------------------------------

def _compose_monomial(e: Expr, chart: Chart) -> Expr:
    """Substitute the forward maps into a power product; each power of a
    shifted map x_j(y) - a_j is whatever :meth:`Expr.pow` makes of it."""
    a = chart.ctx_x.initial_points
    out = Expr.zero(chart.n)
    for c, exps in zip(e.coeffs.tolist(), e.exponents.tolist()):
        acc = Expr.constant(c, chart.n)
        for j, p in enumerate(exps):
            if p:  # canonical exponents snap to 0 near 0
                acc = acc * (chart.forward[j] + Expr.constant(-a[j], chart.n)).pow(p)
        out = out + acc
    return out


def transform_form(A: Form, J: JacobianMatrix) -> Form:
    """Rewrite a grade-1 form in the chart's target coordinates.

    Coefficients are composed with the forward maps (evaluated at the matrix
    point in numeric mode) and contracted against the matrix; differentials
    are rebuilt over the y coordinates at the same order.
    """
    chart = J.chart
    nu = A.total_order
    comps = [A.component(k, chart.ctx_x.n) for k in range(chart.n)]
    if not A.has_order(J.nu):
        raise ValueError(f"form order {nu} != matrix order {J.nu}")
    if J.mode == "numeric":
        x_pt = chart.x_of(J.point)
        comps = [eval_expr(c, chart.ctx_x, x_pt) for c in comps]
    else:
        comps = [_compose_monomial(c, chart) for c in comps]
    coeffs = [_dot(comps, column, chart.n) for column in zip(*J.entries)]
    return Form(1, nu, [(WedgeWord((DiffFactor(i, nu),)),
                         c if isinstance(c, Expr) else Expr.constant(c, chart.n))
                        for i, c in enumerate(coeffs)])


def _dot(xs: Sequence, ys: Sequence, n: int):
    """sum_k xs[k] * ys[k]: ``math.fsum`` over floats, the left-fold sum over
    Exprs (of n coordinates)."""
    products = [x * y for x, y in zip(xs, ys)]
    if isinstance(products[0], Expr):
        return sum(products, Expr.zero(n))
    return math.fsum(products)


def inverse_residual(chart: Chart, nu: float, point: Sequence[float],
                     h0: float = 1e-3, levels: int = 3) -> np.ndarray:
    """J(y,x,nu) contracted into J(x,y,nu), minus the identity, at a y-point.

    A diagnostic, not an assertion: the product provably recovers the
    identity at nu=1 and for single-coordinate charts, and the returned
    matrix measures how far other cases drift.
    """
    fwd = jacobian(chart, nu, point, h0, levels)
    rev = jacobian(chart.reversed(), nu, chart.x_of(point), h0, levels)
    return fwd.as_array() @ rev.as_array() - np.eye(chart.n)


class MetricMatrix(ChartMatrix):
    """Gram contraction g_ij = sum_k J_i^k J_j^k; symmetric by construction."""


def metric(chart: Chart, nu: float, point: Sequence[float] | None = None,
           h0: float = 1e-3, levels: int = 3) -> MetricMatrix:
    """Fractional metric from the transformation matrix at order nu."""
    J = jacobian(chart, nu, point, h0, levels)
    n = chart.n
    columns = list(zip(*J.entries))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = _dot(columns[i], columns[j], n)
    return MetricMatrix(tuple(tuple(r) for r in rows), J.nu, chart, J.point)


def line_element(g: MetricMatrix, dy: Sequence[float]) -> float:
    """Quadratic-form square root sqrt(sum_ij g_ij dy_i dy_j).

    ``dy`` supplies the displacement components at the metric's order as
    plain reals; the engine assigns them no further meaning.
    """
    arr = g.as_array()
    v = np.asarray(dy, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"expected {g.n} displacement components, got {v.shape}")
    s = float(v @ arr @ v)
    if s < -1e-12:
        raise NegativeQuadraticFormError(
            f"quadratic form is negative ({s:.6g}) at this point")
    return math.sqrt(max(s, 0.0))
