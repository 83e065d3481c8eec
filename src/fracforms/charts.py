"""Coordinate transformations for fractional differentials.

A chart carries both directions of a coordinate change explicitly (no
automatic inversion) plus the initial points on each side.  The fractional
transformation matrix is

    J_i^k = 1/gamma(nu+1) * D_(y_i)^nu [ prod_{j != k} (x_j(y) - a_j)^(nu-m)
                                          * (x_k(y) - a_k)^nu ],

computed symbolically when the forward maps live in the power-product class
and numerically otherwise: Richardson-extrapolated GL sums along the
coordinate line for fractional orders, Richardson-extrapolated central
differences for whole orders (where the differintegral is the ordinary local
derivative).  The matrix is stored with rows indexed by k (the source
differential) and columns by i (the target differential), so at nu=1 row k
is the gradient of x_k.

For n >= 2 and non-whole nu the product over j != k does not drop out of the
derivation, so the forward and reverse matrices need not be inverse to each
other; ``inverse_residual`` reports that defect instead of asserting it away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NegativeQuadraticFormError, QuadratureDomainError, UnsupportedError
from .forms import DiffFactor, Form, WedgeWord
from .oracle import richardson
from .rl import power_rule_map
from .specialfn import gamma_ratio, rgamma, whole_ceil
from .symbolic import EXP_TOL, Context, Expr, eval_expr, fmt_number, monomial, term_values

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

    def validate(self, probes: Sequence[Sequence[float]] | None = None,
                 tol: float = 1e-8) -> None:
        """Check inverse-after-forward identity at probe points."""
        if probes is None:
            atil = self.ctx_y.initial_points
            probes = [tuple(v + 0.7 for v in atil), tuple(v + 1.3 for v in atil)]
        for p in probes:
            back = self.y_of(self.x_of(p))
            err = max(abs(b - v) for b, v in zip(back, p))
            if not err <= tol:
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
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("affine chart matrix is singular")
        minv = np.linalg.inv(m)
        k = m.shape[0]
        ctx_x, ctx_y = _grid_contexts(k)
        fwd = tuple(
            sum((monomial(ctx_y, m[i, j], {j: 1.0}) for j in range(k) if m[i, j] != 0),
                Expr.zero(k))
            for i in range(k))
        inv = tuple(
            sum((monomial(ctx_x, minv[i, j], {j: 1.0}) for j in range(k) if minv[i, j] != 0),
                Expr.zero(k))
            for i in range(k))
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
    if nu <= 0:
        raise ValueError(f"order must be positive, got {nu}")
    k = ctx.index(k)
    m = whole_ceil(nu)
    powers = {k: nu}
    if abs(nu - m) > EXP_TOL:
        for i in range(ctx.n):
            if i != k:
                powers[i] = nu - m
    return monomial(ctx, rgamma(nu + 1.0), powers)


# --- numeric differentiation helpers -----------------------------------------

_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _central_derivative(g: Callable[[float], float], t: float, order: int,
                        h0: float | None = None, levels: int = 4) -> float:
    """Richardson-extrapolated central difference, O(h^2) stencils."""
    if order not in _STENCILS:
        raise UnsupportedError(f"whole-order numeric derivatives go up to 3, got {order}")
    if h0 is None:
        h0 = 1e-2 if order < 3 else 5e-2
    if order == 3:
        levels = min(levels, 3)
    stencil = _STENCILS[order]
    diag = []
    for lvl in range(levels):
        h = h0 / 2.0 ** lvl
        val = math.fsum(w * g(t + s * h) for s, w in stencil) / h ** order
        row = [val]
        for j in range(1, lvl + 1):
            factor = 4.0 ** j
            row.append((factor * row[j - 1] - diag[lvl - 1][j - 1]) / (factor - 1.0))
        diag.append(row)
    return diag[-1][-1]


def _integrand_numeric(chart: Chart, k: int, nu: float) -> Callable:
    """y-vector -> the alpha_k power product of the chart's forward maps."""
    m = whole_ceil(nu)
    a = chart.ctx_x.initial_points
    fractional = abs(nu - m) > EXP_TOL

    def g(y):
        with np.errstate(all="ignore"):
            x = [np.asarray(_raw(chart.forward[j], chart.ctx_y, y), dtype=np.float64)
                 for j in range(chart.n)]
            if fractional:
                val = (x[k] - a[k]) ** nu
                for j in range(chart.n):
                    if j != k:
                        val = val * (x[j] - a[j]) ** (nu - m)
            else:
                val = (x[k] - a[k]) ** int(m)
            return val

    return g


def _raw(f: Evaluable, ctx: Context, point):
    """Like _call but keeps arrays and lets domain violations become nan."""
    if isinstance(f, Expr):
        return sum(term_values(f, ctx, point, strict=False),
                   np.zeros_like(np.asarray(point[0], dtype=np.float64)))
    return f(point)


# --- the transformation matrix ------------------------------------------------

@dataclass(frozen=True)
class JacobianMatrix:
    """n x n fractional transformation matrix.

    ``entries[k][i]`` multiplies dy_i^nu in the expansion of dx_k^nu; at
    nu=1 row k is the classical gradient of x_k.  Symbolic entries are Exprs
    over the chart's y context, numeric entries are floats at ``point``.
    """

    entries: tuple
    nu: float
    m: int
    chart: Chart
    mode: str
    point: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        if self.mode != "numeric":
            raise ValueError("symbolic matrix; call evaluate(point) first")
        return np.asarray(self.entries, dtype=np.float64)

    def evaluate(self, point: Sequence[float]) -> "JacobianMatrix":
        if self.mode == "numeric":
            return self
        rows = tuple(
            tuple(eval_expr(e, self.chart.ctx_y, point) for e in row)
            for row in self.entries)
        return JacobianMatrix(rows, self.nu, self.m, self.chart, "numeric",
                              tuple(float(v) for v in point))

    def to_json(self) -> dict:
        return _matrix_json(self)


def _matrix_json(mat) -> dict:
    if mat.mode == "numeric":
        rows = [[float(v) for v in row] for row in mat.entries]
    else:
        ctx = mat.chart.ctx_y
        from .symbolic import print_expr
        rows = [[print_expr(e, ctx) for e in row] for row in mat.entries]
    return {
        "nu": mat.nu,
        "m": mat.m,
        "chart": mat.chart.name,
        "point": list(mat.point) if mat.point is not None else None,
        "mode": mat.mode,
        "entries": rows,
    }


def format_matrix(rows, digits: int = 10) -> str:
    return "[" + ",".join(
        "[" + ",".join(fmt_number(float(v), digits) for v in row) + "]"
        for row in rows) + "]"


def _symbolic_entries(chart: Chart, nu: float, m: int) -> tuple:
    a = chart.ctx_x.initial_points
    rows = []
    for k in range(chart.n):
        integrand = Expr.constant(1.0, chart.n)
        if abs(nu - m) > EXP_TOL:
            for j in range(chart.n):
                if j == k:
                    continue
                base = chart.forward[j] + Expr.constant(-a[j], chart.n)
                integrand = integrand * base.pow(nu - m)
            integrand = integrand * (
                chart.forward[k] + Expr.constant(-a[k], chart.n)).pow(nu)
        else:
            integrand = (chart.forward[k] + Expr.constant(-a[k], chart.n)).pow(int(m))
        rows.append(tuple(
            power_rule_map(integrand, i, nu, chart.ctx_y,
                           extra_denominators=(nu + 1.0,))
            for i in range(chart.n)))
    return tuple(rows)


def _numeric_entries(chart: Chart, nu: float, m: int, point,
                     h0: float, levels: int) -> tuple:
    atil = chart.ctx_y.initial_points
    whole = abs(nu - round(nu)) <= EXP_TOL
    scale = rgamma(nu + 1.0)
    rows = []
    for k in range(chart.n):
        g = _integrand_numeric(chart, k, nu)
        row = []
        for i in range(chart.n):
            def gline(t, _i=i, _g=g):
                y = [np.float64(v) for v in point]
                y[_i] = t
                return _g(y)
            if whole:
                val = _central_derivative(gline, float(point[i]), int(round(nu)))
            else:
                if not float(point[i]) > atil[i]:
                    raise QuadratureDomainError(
                        f"numeric entries need point[{i}] > {atil[i]}, got {point[i]}")
                val = richardson(gline, nu, float(point[i]), a=atil[i],
                                 h0=h0, levels=levels).value
            row.append(val * scale)
        rows.append(tuple(row))
    return tuple(rows)


def jacobian(chart: Chart, nu: float, point: Sequence[float] | None = None,
             h0: float = 1e-3, levels: int = 3) -> JacobianMatrix:
    """Fractional transformation matrix of the chart at order nu.

    Without a point the entries are computed symbolically (power-product
    forward maps only); with a point they are computed numerically at that
    y-location.
    """
    nu = float(nu)
    if nu <= 0:
        raise ValueError(f"order must be positive, got {nu}")
    m = whole_ceil(nu)
    if point is None:
        if not chart.is_symbolic:
            raise UnsupportedError(
                f"chart {chart.name!r} has black-box forward maps; "
                "pass a point for numeric entries")
        return JacobianMatrix(_symbolic_entries(chart, nu, m), nu, m,
                              chart, "symbolic")
    point = tuple(float(v) for v in point)
    if len(point) != chart.n:
        raise ValueError(f"point has {len(point)} coordinates, chart has {chart.n}")
    return JacobianMatrix(_numeric_entries(chart, nu, m, point, h0, levels),
                          nu, m, chart, "numeric", point)


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
    """Substitute the forward maps into a power product (monomial maps only)."""
    out = Expr.zero(chart.n)
    for c, exps in zip(e.coeffs.tolist(), e.exponents.tolist()):
        acc = Expr.constant(c, chart.n)
        for j, p in enumerate(exps):
            if abs(p) <= EXP_TOL:
                continue
            fj = chart.forward[j]
            if not isinstance(fj, Expr) or len(fj.coeffs) != 1:
                raise UnsupportedError(
                    "symbolic transform needs single-term forward maps; "
                    "use a numeric matrix at a point instead")
            base = fj + Expr.constant(-chart.ctx_x.initial_points[j], chart.n)
            acc = acc * base.pow(p)
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
    if A.grade != 1:
        raise ValueError("transform_form expects a grade-1 form")
    if abs(nu - J.nu) > EXP_TOL:
        raise ValueError(f"form order {nu} != matrix order {J.nu}")
    comps = [A.component(k, chart.ctx_x.n) for k in range(chart.n)]
    terms: dict[WedgeWord, Expr] = {}
    if J.mode == "numeric":
        x_pt = chart.x_of(J.point)
        cvals = [eval_expr(c, chart.ctx_x, x_pt) for c in comps]
        for i in range(chart.n):
            coeff = math.fsum(cvals[k] * J.entries[k][i] for k in range(chart.n))
            word = WedgeWord((DiffFactor(i, nu),))
            terms[word] = Expr.constant(coeff, chart.n)
    else:
        composed = [_compose_monomial(c, chart) for c in comps]
        for i in range(chart.n):
            coeff = Expr.zero(chart.n)
            for k in range(chart.n):
                coeff = coeff + composed[k] * J.entries[k][i]
            word = WedgeWord((DiffFactor(i, nu),))
            terms[word] = coeff
    return Form(1, nu, terms)


def inverse_residual(chart: Chart, nu: float, point: Sequence[float],
                     h0: float = 1e-3, levels: int = 3) -> np.ndarray:
    """J(y,x,nu) contracted into J(x,y,nu), minus the identity, at a y-point.

    A diagnostic, not an assertion: the product provably recovers the
    identity at nu=1 and for single-coordinate charts, and the returned
    matrix measures how far other cases drift.
    """
    fwd = _matrix_at(chart, nu, point, h0, levels)
    x_pt = chart.x_of(point)
    rev = _matrix_at(chart.reversed(), nu, x_pt, h0, levels)
    prod = fwd @ rev
    return prod - np.eye(chart.n)


def _matrix_at(chart: Chart, nu: float, point, h0: float, levels: int) -> np.ndarray:
    if chart.is_symbolic:
        try:
            return np.asarray(
                jacobian(chart, nu).evaluate(point).entries, dtype=np.float64)
        except UnsupportedError:
            pass
    return jacobian(chart, nu, point, h0, levels).as_array()


@dataclass(frozen=True)
class MetricMatrix:
    """Gram contraction g_ij = sum_k J_i^k J_j^k; symmetric by construction."""

    entries: tuple
    nu: float
    m: int
    chart: Chart
    mode: str
    point: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        if self.mode != "numeric":
            raise ValueError("symbolic matrix; call evaluate(point) first")
        return np.asarray(self.entries, dtype=np.float64)

    def evaluate(self, point: Sequence[float]) -> "MetricMatrix":
        if self.mode == "numeric":
            return self
        rows = tuple(
            tuple(eval_expr(e, self.chart.ctx_y, point) for e in row)
            for row in self.entries)
        return MetricMatrix(rows, self.nu, self.m, self.chart, "numeric",
                            tuple(float(v) for v in point))

    def to_json(self) -> dict:
        return _matrix_json(self)


def metric(chart: Chart, nu: float, point: Sequence[float] | None = None,
           h0: float = 1e-3, levels: int = 3) -> MetricMatrix:
    """Fractional metric from the transformation matrix at order nu."""
    J = jacobian(chart, nu, point, h0, levels)
    n = chart.n
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if J.mode == "numeric":
                val = math.fsum(J.entries[k][i] * J.entries[k][j] for k in range(n))
            else:
                val = Expr.zero(n)
                for k in range(n):
                    val = val + J.entries[k][i] * J.entries[k][j]
            rows[i][j] = val
            rows[j][i] = val
    return MetricMatrix(tuple(tuple(r) for r in rows), J.nu, J.m, chart,
                        J.mode, J.point)


def line_element(g: MetricMatrix, dy: Sequence[float], nu: float) -> float:
    """Quadratic-form square root sqrt(sum_ij g_ij dy_i dy_j).

    ``dy`` supplies the order-nu displacement components as plain reals; the
    engine assigns them no further meaning.
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
