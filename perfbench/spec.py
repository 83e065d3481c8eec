"""What the benchmark measures: workloads, metrics, bounds and predictions.

``BENCHMARK.json`` at the root of the repository is generated from this
module (``python3 perfbench/run.py --all`` rewrites it), so the file and the
metrics ``run.py`` prints cannot drift apart.
"""

from __future__ import annotations

RUN_SECONDS = 20

WORKLOADS = (
    ("forms_symbolic",
     "parse, d^nu, is_closed and solve_exact on 100-256 term potentials plus big Expr "
     "products: the symbolic stack (symbolic, rl, forms, analysis) with kernels idle"),
    ("gl_oracle",
     "Richardson GL values of 1-3 term power products, singular ones included, at 1e3-5e5 "
     "nodes per level: GL weights, fsum and sampling with the symbolic stack nearly idle"),
    ("charts_transform",
     "many 1-3 term Jacobians, metrics, pullbacks and inverse residuals, numeric and "
     "symbolic: per-call overhead and small GL sums over black-box lambdas"),
    ("cli_cold",
     "fresh python -m fracforms processes for verify, deriv, dv, exact, jacobian and "
     "oracle: what a CLI user feels, the only workload that times the import path"),
)

# (name, unit, better, bound): bound is the share of the parent's median by
# which a change may worsen the metric before it counts as a regression.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_p90_ms", "ms", "lower", 0.2),
    ("accurate_ratio", "ratio", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_SYMBOLIC = "ops_per_s and latency_p50_ms on forms_symbolic; a per-call cost shows on charts_transform"
_ANALYSIS = "ops_per_s and latency_p90_ms on forms_symbolic (n=4 solve_exact ops make the tail)"
_KERNELS = ("ops_per_s and latency_p90_ms on gl_oracle; little on charts_transform; "
            "nothing on forms_symbolic")
_ORACLE = "ops_per_s on gl_oracle and charts_transform; accurate_ratio on gl_oracle"
_CHARTS = "ops_per_s on charts_transform"
_IMPORT = "setup_s on every workload; latency_p50_ms on cli_cold"

# span -> (extra work counters, the end-to-end metrics it should move)
SPAN_METRICS = (
    ("symbolic.parse_expr", (), _SYMBOLIC),
    ("symbolic.canonicalize", ("terms_in", "terms_out"), _SYMBOLIC),
    ("symbolic.mul", ("terms_out",), _SYMBOLIC),
    ("symbolic.eval_expr", (), _SYMBOLIC),
    ("symbolic.print_expr", (), _SYMBOLIC),
    ("rl.power_rule_map", ("terms_in", "terms_out"), "ops_per_s on forms_symbolic"),
    ("forms.parse_form", (), _SYMBOLIC),
    ("forms.frac_exterior_deriv", (), _ANALYSIS),
    ("analysis.is_closed", (), _ANALYSIS),
    ("analysis.solve_exact", ("exact_ratio",), _ANALYSIS),
    ("kernels.gl_weights", ("nodes",), _KERNELS),
    ("kernels.gl_weighted_sum", ("nodes", "bytes_computed"), _KERNELS),
    ("oracle.richardson", ("converged_ratio", "covered_ratio"), _ORACLE),
    ("oracle.gl_deriv", (), _ORACLE),
    ("charts.jacobian", (), _CHARTS),
    ("charts.metric", (), _CHARTS),
    ("charts.transform_form", (), _CHARTS),
    ("charts.inverse_residual", (), _CHARTS),
)

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "terms_in": ("count", "lower"), "terms_out": ("count", "lower"),
          "nodes": ("count", "lower"), "bytes_computed": ("B", "lower"),
          "exact_ratio": ("ratio", "higher"), "converged_ratio": ("ratio", "higher"),
          "covered_ratio": ("ratio", "higher")}

# (name, unit, better, what it should move)
PER_LAYER = tuple(
    (f"{span}.{field}", *_UNITS[field], moves)
    for span, extra, moves in SPAN_METRICS
    for field in ("calls", "self_s", *extra)
) + (
    ("cli.import_numpy_s", "s", "lower", _IMPORT),
    ("cli.import_fracforms_s", "s", "lower", _IMPORT),
    ("cli.command_s", "s", "lower", _IMPORT),
    ("trace.overhead_ratio", "ratio", "lower",
     "nothing: untraced ops_per_s / traced ops_per_s on the same fixed op list"),
)



def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
