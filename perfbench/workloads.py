"""The four benchmark workloads: seeded inputs, the ops, and their checks.

Each workload is a closed loop with one client: an op is sent only after the
previous one has returned.  Ops come in rounds with a fixed mix of kinds; the
seed and the round number pick the values inside each op, so every run does
the same kinds of work in the same proportions.

An op's answer is checked against ``reference`` (plain ``math``, no
fracforms).  A failed check is one of two kinds:

* ``wrong``: an unexpected error, or a symbolic result, a verdict, an exit
  code, a whole-order number or the GL value of an integrand that is finite
  at 0 is wrong.  The op fails and the run is reported as not correct.
* ``inaccurate``: the oracle claims ``converged=True`` with an error bar
  that does not cover the true error, or a fractional-order GL value misses
  its stated accuracy.  These are the oracle's known accuracy defects.  The
  op does not fail; it counts against ``accurate_ratio``, an end-to-end
  metric with a bound, so the inputs that show the defects stay in every
  run and a fix, or a regression, is measured.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref
import tracing

QUARTERS = [k * 0.25 for k in range(20)]  # exponents 0 .. 4.75, exact in binary


@dataclass
class Outcome:
    accurate: bool = True  # the answer met its stated accuracy
    wrong: bool = False  # the op failed
    reason: str = ""
    notes: dict = field(default_factory=dict)  # counts added to the trace
    child: dict | None = None  # spans and import times of a traced CLI child


def wrong(reason: str) -> Outcome:
    return Outcome(False, True, reason)


def inaccurate(reason: str, notes: dict | None = None) -> Outcome:
    return Outcome(False, False, reason, notes or {})


@dataclass
class Op:
    kind: str
    inputs: tuple  # what the op was built from; hashed by the determinism check
    run: Callable[[], object]
    check: Callable[[object], Outcome]


class Workload:
    name = ""
    traced_rounds = 1  # rounds in the fixed, traced op list

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """A few cheap ops run before timing starts (part of set-up)."""
        raise NotImplementedError


def covered(value: float, estimate: float, want: float) -> bool:
    """Does the oracle's error bar cover the true error?

    The bar is 10x the reported estimate plus the same rounding floor,
    1e-13 * (1 + |value|), that ``richardson`` allows in its own
    convergence test.
    """
    return abs(value - want) <= 10.0 * estimate + 1e-13 * (1.0 + abs(want))


def _random_coeff(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0)


def _grid_terms(rng: random.Random, n: int, per_coord: int):
    """per_coord^n terms: the product of n random exponent sets."""
    grids = [sorted(rng.sample(QUARTERS, per_coord)) for _ in range(n)]
    return [(_random_coeff(rng), exps) for exps in itertools.product(*grids)]


# --- forms_symbolic -------------------------------------------------------------

class FormsSymbolic(Workload):
    """parse -> d^nu -> is_closed -> solve_exact on large random potentials."""

    name = "forms_symbolic"
    traced_rounds = 1
    SIZES = ((2, 10), (3, 6), (4, 4))  # 100, 216 and 256 terms

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.F = importlib.import_module("fracforms")

    def _names(self, n):
        return tuple(f"x{i + 1}" for i in range(n))

    def _point(self, rng, n):
        return tuple(rng.uniform(0.5, 1.5) for _ in range(n))

    def forms_op(self, rng, n, per_coord, nu, perturbed) -> Op:
        F = self.F
        names = self._names(n)
        ctx = F.Context.of(names)
        f_terms = _grid_terms(rng, n, per_coord)
        text = ref.expr_text(f_terms, names)
        pts = (self._point(rng, n), self._point(rng, n))
        want = [ref.power_rule(f_terms, j, nu) for j in range(n)]
        if perturbed:  # x1 d(x2, nu): D_x1^nu x1 != 0, so never closed
            want[1] = want[1] + [(1.0, (1.0,) + (0.0,) * (n - 1))]

        def run():
            f = F.parse_expr(text, ctx)
            alpha = F.frac_exterior_deriv(f, nu, ctx)
            if perturbed:
                alpha = alpha + F.parse_form(f"x1 d(x2,{nu!r})", ctx)
            return alpha, F.is_closed(alpha, nu, ctx), F.solve_exact(alpha, nu, ctx)

        def check(out):
            alpha, report, sol = out
            p = pts[0]
            for j in range(n):
                got, _ = ref.evaluate(_terms(alpha.component(j, n)), p)
                val, scale = ref.evaluate(want[j], p)
                if not ref.close(got, val, 1e-9, scale):
                    return wrong(f"d^nu component {j}: {got!r} != {val!r}")
            if report.closed == perturbed:
                return wrong(f"is_closed reported closed={report.closed}")
            status = "not_integrable" if perturbed else "exact"
            if sol.status != status:
                return wrong(f"solve_exact status {sol.status!r}, expected {status!r}")
            if perturbed:
                return Outcome()
            # sol.f is f up to a multiple of the kernel element prod x_i^(nu-1)
            got_terms = _terms(sol.f)
            ratios, scale = [], 0.0
            for q in pts:
                a, sa = ref.evaluate(got_terms, q)
                b, sb = ref.evaluate(f_terms, q)
                k = math.prod(x ** (nu - 1.0) for x in q)
                ratios.append((a - b) / k)
                scale += (sa + sb) / k
            if abs(ratios[0] - ratios[1]) > 1e-9 * scale:
                return wrong("solve_exact potential differs from f beyond the kernel")
            return Outcome()

        return Op("forms", (text, nu, perturbed, pts), run, check)

    def product_op(self, rng) -> Op:
        F = self.F
        names = self._names(3)
        ctx = F.Context.of(names)
        a_terms = _grid_terms(rng, 3, 6)
        b_terms = [(_random_coeff(rng), tuple(rng.choice(QUARTERS) for _ in range(3)))
                   for _ in range(30)]
        a_text, b_text = ref.expr_text(a_terms, names), ref.expr_text(b_terms, names)
        p = self._point(rng, 3)

        def run():
            return F.parse_expr(a_text, ctx) * F.parse_expr(b_text, ctx)

        def check(prod):
            a, sa = ref.evaluate(a_terms, p)
            b, sb = ref.evaluate(b_terms, p)
            got, _ = ref.evaluate(_terms(prod), p)
            if not ref.close(got, a * b, 1e-9, sa * sb):
                return wrong(f"product value {got!r} != {a * b!r}")
            return Outcome()

        return Op("product", (a_text, b_text, p), run, check)

    def expr_roundtrip_op(self, rng) -> Op:
        F = self.F
        names = self._names(3)
        ctx = F.Context.of(names)
        terms = _grid_terms(rng, 3, 6)
        text = ref.expr_text(terms, names)
        p = self._point(rng, 3)

        def run():
            e = F.parse_expr(text, ctx)
            return e, F.parse_expr(F.print_expr(e, ctx), ctx)

        def check(out):
            e, back = out
            if back != e:
                return wrong("parse(print(e)) != e for an expression")
            got, _ = ref.evaluate(_terms(e), p)
            val, scale = ref.evaluate(terms, p)
            if not ref.close(got, val, 1e-12, scale):
                return wrong(f"parsed expression evaluates to {got!r}, not {val!r}")
            return Outcome()

        return Op("roundtrip_expr", (text, p), run, check)

    def form_roundtrip_op(self, rng) -> Op:
        F = self.F
        names = self._names(2)
        ctx = F.Context.of(names)
        nu = 0.5
        comps = [ref.power_rule(_grid_terms(rng, 2, 10), j, nu) for j in range(2)]
        text = ref.form_text(comps, names, nu)
        p = self._point(rng, 2)

        def run():
            a = F.parse_form(text, ctx)
            return a, F.parse_form(F.print_form(a, ctx), ctx)

        def check(out):
            a, back = out
            if back != a:
                return wrong("parse(print(form)) != form")
            for j in range(2):
                got, _ = ref.evaluate(_terms(a.component(j, 2)), p)
                val, scale = ref.evaluate(comps[j], p)
                if not ref.close(got, val, 1e-12, scale):
                    return wrong(f"parsed form component {j} is {got!r}, not {val!r}")
            return Outcome()

        return Op("roundtrip_form", (text, p), run, check)

    def round(self, r):
        rng = self.rng(r)
        ops = [self.forms_op(rng, n, g, nu, pert)
               for n, g in self.SIZES for nu in (0.5, 1.0) for pert in (False, True)]
        ops += [self.product_op(rng), self.product_op(rng),
                self.expr_roundtrip_op(rng), self.form_roundtrip_op(rng)]
        return ops

    def warmup(self):
        rng = self.rng("warmup")
        return [self.forms_op(rng, 2, 4, 0.5, False), self.forms_op(rng, 2, 4, 1.0, True)]


def _terms(e):
    return [(t.coeff, t.exponents) for t in e.terms]


# --- gl_oracle --------------------------------------------------------------------

class GLOracle(Workload):
    """Richardson-extrapolated GL values of random univariate power products."""

    name = "gl_oracle"
    traced_rounds = 2
    SETTINGS = ((1e-3, 3), (1e-4, 4), (1e-4, 5))  # (h0, levels)
    # Stratified draws: per setting and round, the first exponent and the
    # point x each fall once in every one of STRATA equal slices of (-0.9, 3)
    # and [0.5, 3], and the op has 1, 2 or 3 terms twice each.  The draws
    # stay uniform, with less run-to-run spread in node counts and in how
    # many ops are endpoint-singular.
    STRATA = 6

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.F = importlib.import_module("fracforms")
        self.ctx = self.F.Context.of(("x",))

    def oracle_op(self, rng, h0, levels, p_slice, x_slice, extra_terms) -> Op:
        F, ctx = self.F, self.ctx
        first = -0.9 + 3.9 * (p_slice + rng.random()) / self.STRATA
        terms = [(_random_coeff(rng), (p,)) for p in
                 [first] + [rng.uniform(-0.9, 3.0) for _ in range(extra_terms)]]
        q = rng.uniform(-1.5, 1.5)
        x = 0.5 + 2.5 * (x_slice + rng.random()) / self.STRATA
        text = ref.expr_text(terms, ("x",))
        want, scale = ref.evaluate(ref.power_rule(terms, 0, q), (x,))
        # integrands finite at 0 come out within 1e-5 of the reference at every
        # setting; a miss by 1e-4 is a wrong answer, not the known defect.  The
        # miss is taken relative to the answer's size before its factor
        # 1/gamma(p - q + 1): GL's error scales with the integrand, and that
        # factor makes the answer tiny when p - q is near a negative integer.
        smooth = min(p for _, (p,) in terms) >= 0.0
        gl_scale = math.fsum(abs(c) * math.gamma(p + 1.0) * x ** (p - q) for c, (p,) in terms)

        def run():
            e = F.parse_expr(text, ctx)
            res = F.richardson(F.expr_univariate(e, ctx, 0, (x,)), q, x, 0.0,
                               h0=h0, levels=levels)
            return res, F.eval_expr(F.rl_deriv(e, 0, q, ctx), ctx, (x,))

        def check(out):
            res, sym = out
            if not ref.close(sym, want, 1e-9, scale):
                return wrong(f"symbolic D^{q} = {sym!r}, expected {want!r}")
            if smooth and not ref.close(res.value, want, 1e-4, gl_scale):
                return wrong(f"GL D^{q} of a smooth integrand = {res.value!r}, expected {want!r}")
            if not res.converged:
                return Outcome()
            if covered(res.value, res.error_estimate, want):
                return Outcome(notes={"judged": 1, "covered": 1})
            return inaccurate(
                f"converged=True but |{res.value!r} - {want!r}| > 10 x {res.error_estimate:.3g}",
                {"judged": 1, "covered": 0})

        return Op("oracle", (text, q, x, h0, levels), run, check)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for h0, levels in self.SETTINGS:
            xs = rng.sample(range(self.STRATA), self.STRATA)
            extra = rng.sample([0, 0, 1, 1, 2, 2], self.STRATA)
            ops += [self.oracle_op(rng, h0, levels, k, xs[k], extra[k])
                    for k in range(self.STRATA)]
        return ops

    def warmup(self):
        return [self.oracle_op(self.rng("warmup"), 1e-3, 3, self.STRATA - 1, 0, 0)]


# --- charts_transform ---------------------------------------------------------------

class ChartsTransform(Workload):
    """Many small coordinate-change tasks, numeric and symbolic."""

    name = "charts_transform"
    traced_rounds = 30

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.F = importlib.import_module("fracforms")
        self.polar = self.F.get_chart("polar")

    @staticmethod
    def _fractional_order(rng):
        return rng.uniform(0.3, 1.7)

    @staticmethod
    def _polar_point(rng):
        return (rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.4))

    def polar_fractional(self, rng, what) -> Op:
        F = self.F
        nu = self._fractional_order(rng)
        r, th = self._polar_point(rng)
        radial = [ref.polar_radial(k, nu, r, th) for k in range(2)]

        def run():
            return getattr(F, what)(self.polar, nu, (r, th)).entries

        def check(entries):
            if not all(math.isfinite(v) for row in entries for v in row):
                return wrong(f"non-finite {what} entry")
            if what == "jacobian":
                got, want, tol = [entries[k][0] for k in range(2)], radial, 1e-3
            else:  # g_rr = sum_k (J_k^r)^2
                got, want, tol = [entries[0][0]], [radial[0] ** 2 + radial[1] ** 2], 2e-3
            for g, w in zip(got, want):
                if not ref.close(g, w, tol):
                    return inaccurate(f"polar {what} nu={nu!r}: {g!r} vs closed form {w!r}")
            return Outcome()

        return Op(f"polar_{what}", (nu, r, th), run, check)

    def polar_whole(self, rng, what) -> Op:
        F = self.F
        r, th = self._polar_point(rng)
        J = ((math.cos(th), -r * math.sin(th)), (math.sin(th), r * math.cos(th)))
        want = J if what == "jacobian" else ((1.0, 0.0), (0.0, r * r))

        def run():
            return getattr(F, what)(self.polar, 1.0, (r, th)).entries

        def check(entries):
            return self._matrix_check(entries, want, 1e-8, f"classical polar {what}")

        return Op(f"polar_whole_{what}", (r, th), run, check)

    @staticmethod
    def _scale_chart(rng, n):
        cs = [rng.uniform(0.5, 3.0) for _ in range(n)]
        return "scale:" + ",".join(repr(c) for c in cs), cs

    @staticmethod
    def _affine_chart(rng):
        A = [[rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)],
             [rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)]]
        return "affine:" + ";".join(",".join(repr(v) for v in row) for row in A), A

    @staticmethod
    def _scale_jacobian(cs, nu, y):
        """x_k = c_k y_k: diagonal, J_k^k = c_k^nu prod_{j != k} (c_j y_j)^(nu-m)."""
        m = math.ceil(nu)
        n = len(cs)
        return [[cs[k] ** nu * math.prod((cs[j] * y[j]) ** (nu - m) for j in range(n) if j != k)
                 if i == k else 0.0 for i in range(n)] for k in range(n)]

    @staticmethod
    def _gram(J):
        n = len(J)
        return [[math.fsum(J[k][i] * J[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    @staticmethod
    def _matrix_check(got, want, tol, what) -> Outcome:
        for row, wrow in zip(got, want):
            for g, w in zip(row, wrow):
                if not abs(float(g) - w) <= tol:
                    return wrong(f"{what}: {g!r} vs {w!r}")
        return Outcome()

    def symbolic_matrix(self, rng, chart_kind, what) -> Op:
        """Symbolic jacobian or metric of scale, identity or affine charts."""
        F = self.F
        if chart_kind == "affine":
            spec, A = self._affine_chart(rng)
            nu = rng.choice((1.0, 2.0))
            m = int(nu)  # whole orders: J_k^i = a_ki^m
            J = [[A[k][i] ** m for i in range(2)] for k in range(2)]
            y = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        else:
            n = 2 if chart_kind == "scale" else 3
            if chart_kind == "scale":
                spec, cs = self._scale_chart(rng, n)
            else:
                spec, cs = "identity", [1.0] * n
            nu = self._fractional_order(rng)
            y = tuple(rng.uniform(0.5, 2.0) for _ in range(n))
            J = self._scale_jacobian(cs, nu, y)
        want = J if what == "jacobian" else self._gram(J)
        n = len(J)
        tol = 1e-9 * max(1.0, max(abs(w) for row in want for w in row))

        def run():
            chart = F.get_chart(spec, n)
            return getattr(F, what)(chart, nu).evaluate(y).entries

        def check(entries):
            return self._matrix_check(entries, want, tol, f"{spec} {what} nu={nu!r}")

        return Op(f"symbolic_{what}", (spec, nu, y), run, check)

    def transform_op(self, rng, chart_kind) -> Op:
        """Pull a small grade-1 form back through a chart."""
        F = self.F
        names = ("x1", "x2")
        if chart_kind == "scale":
            spec, cs = self._scale_chart(rng, 2)
            nu = self._fractional_order(rng)
            y = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            x = [c * v for c, v in zip(cs, y)]
            J = self._scale_jacobian(cs, nu, y)
            point = None
        elif chart_kind == "affine":  # constant coefficients: no composition needed
            spec, J = self._affine_chart(rng)
            nu = 1.0
            y = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            x, point = y, None
        else:  # polar, numeric mode at whole order
            spec, nu = "polar", 1.0
            r, th = self._polar_point(rng)
            y = point = (r, th)
            x = [r * math.cos(th), r * math.sin(th)]
            J = [[math.cos(th), -r * math.sin(th)], [math.sin(th), r * math.cos(th)]]
        if chart_kind == "affine":
            comps = [[(_random_coeff(rng), (0.0, 0.0))] for _ in range(2)]
        else:
            comps = [[(rng.uniform(0.5, 2.0), (rng.choice(QUARTERS[:13]), rng.choice(QUARTERS[:13])))]
                     for _ in range(2)]
        text = ref.form_text(comps, names, nu)
        a_at_x = [ref.evaluate(c, x)[0] for c in comps]
        want = [math.fsum(a_at_x[k] * J[k][i] for k in range(2)) for i in range(2)]
        tol = 1e-9 if point is None else 1e-8

        def run():
            chart = F.get_chart(spec)
            A_form = F.parse_form(text, chart.ctx_x)
            return F.transform_form(A_form, F.jacobian(chart, nu, point))

        def check(B):
            for i in range(2):
                got, _ = ref.evaluate(_terms(B.component(i, 2)), y)
                if not ref.close(got, want[i], tol, max(1.0, abs(want[i]))):
                    return wrong(f"transform_form on {spec}: d(y{i + 1}) coefficient "
                                 f"{got!r} vs {want[i]!r}")
            return Outcome()

        return Op("transform_form", (spec, text, nu, y), run, check)

    def inverse_residual_op(self, rng, chart_kind) -> Op:
        F = self.F
        if chart_kind == "scale":
            spec, cs = self._scale_chart(rng, 2)
            nu = self._fractional_order(rng)
            y = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            m = math.ceil(nu)
            # forward times reverse is diagonal: prod_{j != k} c_j^(nu-m) y_j^(2(nu-m))
            want = [[(cs[1 - k] ** (nu - m) * y[1 - k] ** (2 * (nu - m)) - 1.0) if i == k else 0.0
                     for i in range(2)] for k in range(2)]
        else:  # polar at whole order: the identity is recovered
            spec, nu = "polar", 1.0
            y = self._polar_point(rng)
            want = [[0.0, 0.0], [0.0, 0.0]]
        tol = 1e-9 if chart_kind == "scale" else 1e-6

        def run():
            return F.inverse_residual(F.get_chart(spec), nu, y)

        def check(res):
            return self._matrix_check(res, want, tol, f"inverse_residual on {spec} nu={nu!r}")

        return Op("inverse_residual", (spec, nu, y), run, check)

    def round(self, r):
        rng = self.rng(r)
        return [
            self.polar_fractional(rng, "jacobian"),
            self.polar_fractional(rng, "metric"),
            self.polar_whole(rng, "jacobian"),
            self.polar_whole(rng, "metric"),
            self.symbolic_matrix(rng, "scale", "jacobian"),
            self.symbolic_matrix(rng, "identity", "metric"),
            self.symbolic_matrix(rng, "affine", "jacobian"),
            self.symbolic_matrix(rng, "affine", "metric"),
            self.transform_op(rng, "scale"),
            self.transform_op(rng, "affine"),
            self.transform_op(rng, "polar"),
            self.inverse_residual_op(rng, "scale"),
            self.inverse_residual_op(rng, "polar"),
        ]

    def warmup(self):
        return self.round("warmup")


# --- cli_cold -------------------------------------------------------------------------

class CliCold(Workload):
    """Fresh ``python -m fracforms <verb>`` processes, one at a time."""

    name = "cli_cold"
    traced_rounds = 1

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.traced = False
        self.env = child_env(root)

    def command(self, argv):
        if self.traced:
            child = str(Path(__file__).with_name("cli_child.py"))
            return [sys.executable, "-X", "importtime", child, *argv]
        return [sys.executable, "-m", "fracforms", *argv]

    def cli_op(self, kind, argv, check_stdout) -> Op:
        argv = tuple(argv)
        traced = self.traced

        def run():
            return subprocess.run(self.command(argv), cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=120)

        def check(proc):
            child = tracing.read_child(proc.stderr) if traced else None
            if proc.returncode != 0:
                out = wrong(f"frac {kind} exited {proc.returncode}: {proc.stderr[-300:]}")
            else:
                try:
                    out = check_stdout(proc.stdout)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    out = wrong(f"frac {kind} printed unexpected output: {exc!r}")
            out.child = child
            return out

        return Op(kind, argv, run, check)

    def verify(self) -> Op:
        def check(stdout):
            last = stdout.strip().splitlines()[-1]
            return Outcome() if last == "12/12 checks passed" else wrong(f"verify: {last!r}")
        return self.cli_op("verify", ["verify"], check)

    def deriv(self, rng) -> Op:
        c, p = rng.uniform(0.5, 2.0), rng.choice(QUARTERS[1:13])
        q = rng.uniform(0.1, 0.9)
        want = ref.power_rule([(c, (p,))], 0, q)

        def check(stdout):
            got = ref.parse_terms(json.loads(stdout)["expr"], ("x",))
            return Outcome() if ref.same_terms(got, want, 1e-12) else wrong(f"deriv: {got} vs {want}")

        argv = ["deriv", ref.expr_text([(c, (p,))], ("x",)), "--var", "x",
                "--order", repr(q), "--json"]
        return self.cli_op("deriv", argv, check)

    def dv(self, rng) -> Op:
        names = ("x1", "x2")
        f = [(rng.uniform(0.5, 2.0), (rng.choice(QUARTERS[1:13]), rng.choice(QUARTERS[1:13])))]
        nu = rng.uniform(0.1, 0.9)
        want = {names[j]: ref.power_rule(f, j, nu) for j in range(2)}

        def check(stdout):
            form = json.loads(stdout)["form"]
            got = {t["factors"][0]["coord"]: ref.parse_terms(t["coeff"], names)
                   for t in form["terms"]}
            if got.keys() != want.keys() or not all(
                    ref.same_terms(got[k], want[k], 1e-12) for k in want):
                return wrong(f"dv: {got} vs {want}")
            return Outcome()

        argv = ["dv", ref.expr_text(f, names), "--order", repr(nu), "--json"]
        return self.cli_op("dv", argv, check)

    def exact(self, rng) -> Op:
        names = ("x1", "x2")
        f = [(rng.uniform(0.5, 2.0), (rng.choice(QUARTERS[1:13]), rng.choice(QUARTERS[1:13])))]
        nu = rng.choice((0.5, 1.0))
        alpha = ref.form_text([ref.power_rule(f, j, nu) for j in range(2)], names, nu)

        def check(stdout):
            out = json.loads(stdout)
            if out["status"] != "exact":
                return wrong(f"exact: status {out['status']!r}")
            got = ref.parse_terms(out["f"], names)
            return Outcome() if ref.same_terms(got, f, 1e-9) else wrong(f"exact: f = {got}")

        return self.cli_op("exact", ["exact", alpha, "--json"], check)

    def jacobian(self, rng) -> Op:
        r, th = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.4)
        radial = [ref.polar_radial(k, 0.5, r, th) for k in range(2)]

        def check(stdout):
            out = json.loads(stdout)
            if not all(math.isfinite(v) for row in out["residual"] for v in row):
                return wrong("jacobian: non-finite residual")
            for k in range(2):
                got = out["entries"][k][0]
                if not ref.close(got, radial[k], 1e-3):
                    return inaccurate(f"jacobian row {k}: {got!r} vs {radial[k]!r}")
            return Outcome()

        argv = ["jacobian", "--chart", "polar", "--order", "0.5",
                "--point", f"{r!r},{th!r}", "--residual", "--json"]
        return self.cli_op("jacobian", argv, check)

    def oracle(self, rng) -> Op:
        # a smooth c*x^p at x = 2, like the ROADMAP's oracle baseline: this
        # workload times the process, and its check is the printed answer to
        # 1e-6.  Whether the error bar covers the error is gl_oracle's check.
        c, p = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)
        q = rng.uniform(0.1, 0.9)
        want, _ = ref.evaluate(ref.power_rule([(c, (p,))], 0, q), (2.0,))

        def check(stdout):
            out = json.loads(stdout)
            if not ref.close(out["symbolic"], want, 1e-9):
                return wrong(f"oracle: symbolic {out['symbolic']!r} vs {want!r}")
            notes = {"judged": 1, "covered": covered(out["gl"], out["error_estimate"], want)} \
                if out["converged"] else {}
            if not ref.close(out["gl"], want, 1e-6):
                return inaccurate(f"oracle: gl {out['gl']!r} vs {want!r}", notes)
            return Outcome(notes=notes)

        argv = ["oracle", ref.expr_text([(c, (p,))], ("x",)), "--var", "x",
                "--order", repr(q), "--point", "2", "--levels", "5", "--h", "1e-5",
                "--json"]
        return self.cli_op("oracle", argv, check)

    def round(self, r):
        rng = self.rng(r)
        return [self.verify(), self.deriv(rng), self.dv(rng), self.exact(rng),
                self.jacobian(rng), self.oracle(rng)]

    def warmup(self):
        return [self.deriv(self.rng("warmup"))]


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources, fixed hashing and one thread per numeric library."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


WORKLOADS = {w.name: w for w in (FormsSymbolic, GLOracle, ChartsTransform, CliCold)}
