"""Per-layer spans recorded around fracforms' public functions.

``install`` replaces each traced function with a wrapper that times it and
counts its work, everywhere the function object is bound: on its own module,
on every fracforms module that imported it by name (``rl.canonicalize``,
``oracle.gl_weighted_sum``, ...) and on the package namespace.  Nested calls
therefore become child spans, and a span's self time is its duration minus
the time its child spans cover.  Nothing under ``src/`` is edited; the
wrappers exist only in a process that calls ``install``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _terms(e) -> int:
    return len(e.terms)


def _count_terms_in_out(st, args, out):
    st.add("terms_in", _terms(args[0]))
    st.add("terms_out", _terms(out))


def _count_terms_out(st, args, out):
    st.add("terms_out", _terms(out))


def _count_exact(st, args, out):
    st.add("exact", out.status == "exact")


def _count_weights(st, args, out):
    st.add("nodes", int(args[1]))


def _count_sum(st, args, out):
    st.add("nodes", len(args[0]))


def _count_converged(st, args, out):
    st.add("converged", bool(out.converged))


# (span name, module, attribute, work counter); "mul" is Expr.__mul__.
SPANS = (
    ("symbolic.parse_expr", "symbolic", "parse_expr", None),
    ("symbolic.canonicalize", "symbolic", "canonicalize", _count_terms_in_out),
    ("symbolic.mul", "symbolic", "Expr.__mul__", _count_terms_out),
    ("symbolic.eval_expr", "symbolic", "eval_expr", None),
    ("symbolic.print_expr", "symbolic", "print_expr", None),
    ("rl.power_rule_map", "rl", "power_rule_map", _count_terms_in_out),
    ("forms.parse_form", "forms", "parse_form", None),
    ("forms.frac_exterior_deriv", "forms", "frac_exterior_deriv", None),
    ("analysis.is_closed", "analysis", "is_closed", None),
    ("analysis.solve_exact", "analysis", "solve_exact", _count_exact),
    ("kernels.gl_weights", "kernels", "gl_weights", _count_weights),
    ("kernels.gl_weighted_sum", "kernels", "gl_weighted_sum", _count_sum),
    ("oracle.richardson", "oracle", "richardson", _count_converged),
    ("oracle.gl_deriv", "oracle", "gl_deriv", None),
    ("charts.jacobian", "charts", "jacobian", None),
    ("charts.metric", "charts", "metric", None),
    ("charts.transform_form", "charts", "transform_form", None),
    ("charts.inverse_residual", "charts", "inverse_residual", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Span statistics for one process; single-threaded by design."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, *_ in SPANS}
        self._child = [0.0]  # time covered by child spans, one slot per open span

    def wrap(self, name: str, fn, counter):
        st = self.stats[name]
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st.calls += 1
                st.self_s += dur - child.pop()
                child[-1] += dur
            if counter is not None:
                counter(st, args, out)
            return out

        return traced

    def as_dict(self) -> dict:
        return {name: {"calls": st.calls, "self_s": st.self_s, **st.counts}
                for name, st in self.stats.items()}


def install(tracer: Tracer) -> list:
    """Wrap every span in ``SPANS`` wherever fracforms binds the function.

    Returns what ``uninstall`` needs to put the original functions back.
    """
    import fracforms.cli  # noqa: F401  (not imported by the package itself)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "fracforms" or name.startswith("fracforms."))]
    patched = []
    for name, mod_name, attr, counter in SPANS:
        module = sys.modules[f"fracforms.{mod_name}"]
        if "." in attr:  # a method: Expr.__rmul__ is the same function as __mul__
            cls_name, meth = attr.split(".")
            owners = [getattr(module, cls_name)]
            orig = owners[0].__dict__[meth]
        else:
            owners = modules
            orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, counter)
        for owner in owners:
            for key, val in list(vars(owner).items()):
                if val is orig:
                    setattr(owner, key, wrapped)
                    patched.append((owner, key, orig))
    return patched


def uninstall(patched: list) -> None:
    for owner, key, orig in patched:
        setattr(owner, key, orig)


def merge(into: dict, spans: dict) -> None:
    """Add one process's ``Tracer.as_dict()`` into an accumulated dict."""
    for name, vals in spans.items():
        acc = into.setdefault(name, {})
        for key, v in vals.items():
            acc[key] = acc.get(key, 0) + v


def parse_importtime(stderr: str) -> dict:
    """Import cost from ``python -X importtime`` output.

    ``numpy_s`` is numpy's cumulative import (everything it pulls in);
    ``fracforms_s`` is the self time of fracforms' own modules, so it does
    not depend on which of the two was imported first.
    """
    numpy_us = 0
    fracforms_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name == "numpy" and not numpy_us:
            numpy_us = cum_us
        elif name == "fracforms" or name.startswith("fracforms."):
            fracforms_us += self_us
    return {"numpy_s": numpy_us * 1e-6, "fracforms_s": fracforms_us * 1e-6}


CHILD_PREFIX = "perfbench-trace: "


def read_child(stderr: str) -> dict:
    """Spans, command time and import times a traced CLI child wrote to stderr."""
    found = {}
    for line in stderr.splitlines():
        if line.startswith(CHILD_PREFIX):
            found = json.loads(line[len(CHILD_PREFIX):])
    return {"spans": found.get("spans", {}), "command_s": found.get("command_s", 0.0),
            "imports": parse_importtime(stderr)}
