"""The fracforms benchmark.

One run of one workload, from the root of a checkout::

    python3 perfbench/run.py --workload forms_symbolic --seed 1 --seconds 20 --trace 0

Every workload runs in fresh single-threaded Python processes started from
the checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics:
latency and throughput of a closed loop of checked ops, set-up time (the
median over several fresh processes) and peak memory.  ``--trace 1`` prints
the per-layer metrics: spans around fracforms' public functions, recorded
over a fixed op list so that every count repeats exactly, plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Shared hosts change speed by up to 1.6x for seconds at a time, so a fixed
calibration loop is timed between ops and every time is reported at the
calibrated speed (see ``CALIBRATION_REF_S``); the uncalibrated figures are
printed too.

``ops_per_s`` counts ops per second spent inside the ops; the client's
answer checks and input generation between ops are excluded.  An op fails,
and the run is not correct, when it raises an unexpected error or gives a
wrong answer.  An answer that misses its stated accuracy (the oracle's
known defects, see ``workloads``) is not a failure but counts against
``accurate_ratio``, the share of ops whose answers met it.

All workloads, both runs each, the determinism check, ``BENCHMARK.json``
and ``.bench_out/results.json``::

    python3 perfbench/run.py --all --seed 1
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from workloads import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # one run must end within 180 s
# Times are reported at the machine speed at which ``worker.calibrate`` takes
# this long (a quiet moment of the 2-vCPU Xeon host the benchmark was defined
# on); each measured time is divided by the slowdown calibrated around it.
CALIBRATION_REF_S = 0.00125
SETUP_PROBES = 5  # set-up-only processes besides the timed one
TRACED_SETUP_PROBES = 3  # under -X importtime, for the cli.import_* metrics


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float,
          importtime: bool = False) -> tuple[dict, str]:
    """Start one worker process, wait for it, return its JSON line and stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), err


def quantile90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def slowdowns(main: dict) -> list[float]:
    """Each op's machine slowdown: the calibrations either side of its
    stretch of ops, over ``CALIBRATION_REF_S``."""
    cal = main["calibrations"]
    out = []
    for (a, ca), (b, cb) in zip(cal, cal[1:]):
        out += [(ca + cb) / 2 / CALIBRATION_REF_S] * (b - a)
    return out


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # set-up probes before and after the timed process
    n = SETUP_PROBES
    setups = [spawn(workload, seed, seconds, "setup", deadline)[0] for _ in range(n - n // 2)]
    main, _ = spawn(workload, seed, seconds, "timed", deadline)
    setups += [spawn(workload, seed, seconds, "setup", deadline)[0] for _ in range(n // 2)]
    slow = slowdowns(main)
    lat_ms = [t * 1e3 / k for t, k in zip(main["latencies"], slow)]
    setup = [p["setup_s"] * CALIBRATION_REF_S / p["setup_calibration_s"] for p in setups + [main]]
    metrics = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) * 1e-3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": quantile90(lat_ms),
        "accurate_ratio": 1.0 - main["inaccurate"] / main["attempted"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    raw_ms = [t * 1e3 for t in main["latencies"]]
    return {"metrics": metrics, "main": main, "setups": setups,
            "notes": [f"latency samples: {len(lat_ms)} ops in {main['rounds']} rounds; "
                      f"set-up samples: {len(setup)} processes",
                      f"machine slowdown (median of {len(main['calibrations'])} calibrations): "
                      f"{statistics.median(c for _, c in main['calibrations']) / CALIBRATION_REF_S:.3f}",
                      f"uncalibrated: ops_per_s {len(raw_ms) / sum(raw_ms) * 1e3:.6g}, "
                      f"latency_p50_ms {statistics.median(raw_ms):.6g}, "
                      f"latency_p90_ms {quantile90(raw_ms):.6g}, "
                      f"setup_s {statistics.median(p['setup_s'] for p in setups + [main]):.6g}"]}


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [spawn(workload, seed, seconds, "setup", deadline, importtime=True)
              for _ in range(TRACED_SETUP_PROBES)]
    main, _ = spawn(workload, seed, seconds, "traced", deadline)
    spans, notes = main["spans"], main["notes"]
    metrics = {}
    for span, extra, _ in spec.SPAN_METRICS:
        st = spans.get(span, {})
        calls = st.get("calls", 0)
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = st.get("self_s", 0.0)
        for field in extra:
            if field == "bytes_computed":  # two float64 arrays read per node
                value = 16 * st.get("nodes", 0)
            elif field == "exact_ratio":
                value = st.get("exact", 0) / calls if calls else 0.0
            elif field == "converged_ratio":
                value = st.get("converged", 0) / calls if calls else 0.0
            elif field == "covered_ratio":
                judged = notes.get("judged", 0)
                value = notes.get("covered", 0) / judged if judged else 0.0
            else:
                value = st.get(field, 0)
            metrics[f"{span}.{field}"] = value
    if main["children"]:  # cli_cold: every CLI process was traced
        imports = [c["imports"] for c in main["children"]]
        command_s = sum(c["command_s"] for c in main["children"])
    else:
        from tracing import parse_importtime
        imports = [parse_importtime(err) for _, err in setups]
        command_s = 0.0
    metrics["cli.import_numpy_s"] = statistics.median(i["numpy_s"] for i in imports)
    metrics["cli.import_fracforms_s"] = statistics.median(i["fracforms_s"] for i in imports)
    metrics["cli.command_s"] = command_s
    metrics["trace.overhead_ratio"] = main["busy_s"] / main["untraced_busy_s"]
    return {"metrics": metrics, "main": main, "setups": [s for s, _ in setups],
            "notes": [f"fixed op list run twice untraced and twice traced: "
                      f"{main['attempted']} traced ops",
                      "cli.import_* are medians over processes, cli.command_s and "
                      "*.self_s are sums over the op list"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)
    res = (per_layer if trace else end_to_end)(workload, seed, seconds, deadline)
    main = res["main"]
    failed = main["failed"] + sum(p["warmup_failed"] for p in res["setups"] + [main])
    res.update(workload=workload, seed=seed, trace=trace, correct=failed == 0)
    return res


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from fracforms import kernels
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_imports": has_numba, "backend": kernels.backend(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def units() -> dict:
    return {n: u for n, u, *_ in spec.END_TO_END} | {n: u for n, u, *_ in spec.PER_LAYER}


def report(res: dict) -> None:
    u = units()
    moves = {n: m for n, _, _, m in spec.PER_LAYER}
    mode = "traced" if res["trace"] else "tracing off"
    print(f"{res['workload']} seed {res['seed']} ({mode})")
    group = None
    for name, value in res["metrics"].items():
        if name in moves and name.rsplit(".", 1)[0] != group:
            group = name.rsplit(".", 1)[0]
            print(f"  {group}: should move {moves[name]}")
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"    {name:<40} {shown:>14} {u[name]}")
    main = res["main"]
    print(f"  attempted {main['attempted']}, failed {main['failed']} "
          f"(inaccurate {main['inaccurate']}); inputs sha256 {main['inputs_sha256'][:16]}")
    for reason in main["reasons"]:
        print(f"    {reason}")
    for note in res["notes"]:
        print(f"  {note}")


def result_line(res: dict) -> str:
    u = units()
    return json.dumps({
        "correct": res["correct"], "attempted": res["main"]["attempted"],
        "failed": res["main"]["failed"],
        "metrics": {n: {"value": v, "unit": u[n]} for n, v in res["metrics"].items()}})


def check_determinism(workload: str, seed: int) -> list[str]:
    """Same seed: same inputs and counts.  Another seed: other inputs."""
    deadline = time.monotonic() + 3 * BUDGET_S
    runs = [spawn(workload, s, 1.0, "traced", deadline)[0] for s in (seed, seed, seed + 1)]

    def counts(r):
        per = per_layer_counts(r)
        return per | {k: r[k] for k in ("attempted", "failed", "inaccurate")}

    problems = []
    a, b, c = runs
    if a["inputs_sha256"] != b["inputs_sha256"] or a["inputs_sha256"] != a["untraced_sha256"]:
        problems.append("the same seed generated different inputs")
    if counts(a) != counts(b):
        diff = {k: (counts(a)[k], counts(b)[k]) for k in counts(a) if counts(a)[k] != counts(b)[k]}
        problems.append(f"count metrics differ between two runs of one seed: {diff}")
    if a["inputs_sha256"] == c["inputs_sha256"]:
        problems.append("a different seed generated the same inputs")
    return problems


def per_layer_counts(r: dict) -> dict:
    out = {}
    for span, vals in r["spans"].items():
        for key, v in vals.items():
            if key != "self_s":
                out[f"{span}.{key}"] = v
    return out | {f"notes.{k}": v for k, v in r["notes"].items()}


def run_all(seed: int, seconds: float) -> int:
    env = environment()
    print("env: " + json.dumps(env))
    results, ok = [], True
    for name, _ in spec.WORKLOADS:
        for trace in (0, 1):
            res = run_once(name, seed, seconds, trace)
            report(res)
            ok &= res["correct"]
            results.append({k: res[k] for k in ("workload", "seed", "trace", "correct", "metrics")}
                           | {"attempted": res["main"]["attempted"],
                              "failed": res["main"]["failed"],
                              "inaccurate": res["main"]["inaccurate"]})
        problems = check_determinism(name, seed)
        print(f"{name} determinism: " + ("; ".join(problems) if problems else
                                         "same seed -> same inputs and counts; "
                                         "new seed -> new inputs"))
        ok &= not problems
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "results.json").write_text(json.dumps({"env": env, "results": results}, indent=1))
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"wrote {out_dir / 'results.json'} and {ROOT / 'BENCHMARK.json'}")
    return 0 if ok else 1


def main() -> int:
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description="fracforms benchmark")
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, both runs, and checks")
    args = ap.parse_args()
    if not (ROOT / "src" / "fracforms" / "__init__.py").is_file():
        print(f"no fracforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            ap.error("--workload or --all is required")
        res = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    report(res)
    print("env: " + json.dumps(environment()))
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
