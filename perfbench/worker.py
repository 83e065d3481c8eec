"""One workload process: set-up, then a timed or a traced pass over the ops.

Started by ``run.py``; prints one JSON line.  Modes:

* ``setup``: set up, report the set-up time and exit.
* ``timed``: run whole rounds of ops, tracing off, until ``--seconds`` have
  passed, and report every op's latency and the calibration times taken
  between ops.
* ``traced``: run the workload's fixed list of rounds four times with the
  same inputs, alternately untraced and traced, and report the spans of the
  traced passes.  The fixed list makes every count repeat exactly for a
  given seed.

Set-up time runs from ``--t0``, a ``time.monotonic()`` reading the parent
took just before starting this process, to the first timed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Time of a fixed piece of Python and numpy work, median of five.

    The shared machines this benchmark runs on change speed by up to 1.6x
    for seconds at a time.  The loop is timed between ops, and ``run.py``
    divides each op's time by the machine speed it ran at.  The median
    follows the slowdown the ops see; the best of a few samples catches the
    machine's quiet moments and under-corrects.
    """
    import numpy as np

    def once():
        t0 = time.perf_counter()
        acc = [(i * i % 7, i * 0.5) for i in range(3000)]
        acc.sort(reverse=True)
        np.cumprod(np.full(10000, 0.9999)).sum()
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(5))


class Tally:
    """Outcomes of the ops one pass ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0  # wrong answers and unexpected errors
        self.inaccurate = 0  # answers that missed their stated accuracy
        self.reasons: list[str] = []
        self.notes: dict = {}
        self.children: list[dict] = []
        self.digest = hashlib.sha256()

    def execute(self, op) -> None:
        self.digest.update(repr((op.kind, op.inputs)).encode())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an error the input was not built to raise
            self.latencies.append(time.perf_counter() - t0)
            outcome = workloads.wrong(f"{op.kind} raised {type(exc).__name__}: {exc}")
        else:
            self.latencies.append(time.perf_counter() - t0)
            outcome = op.check(out)
        if not outcome.accurate:
            self.failed += outcome.wrong
            self.inaccurate += 1
            if len(self.reasons) < 5:
                self.reasons.append(("wrong: " if outcome.wrong else "inaccurate: ")
                                    + outcome.reason)
        for key, v in outcome.notes.items():
            self.notes[key] = self.notes.get(key, 0) + v
        if outcome.child is not None:
            self.children.append(outcome.child)

    def summary(self) -> dict:
        return {"attempted": len(self.latencies), "failed": self.failed,
                "inaccurate": self.inaccurate, "reasons": self.reasons,
                "busy_s": sum(self.latencies), "inputs_sha256": self.digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    loaded = sys.modules.get("fracforms")
    if loaded is not None and Path(loaded.__file__).resolve().parent != ROOT / "src" / "fracforms":
        print(f"fracforms was imported from {loaded.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    # non-convergence is part of the answer and is checked op by op
    warnings.simplefilter("ignore")

    warm = Tally()
    for op in w.warmup():
        warm.execute(op)
    first = w.round(0)  # generating inputs is part of set-up
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "setup_calibration_s": calibrate(),
              "warmup_failed": warm.failed, "warmup_reasons": warm.reasons}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "timed":
        tally = Tally()
        # (op count, calibration time) at each calibration point
        calibrations = [(0, calibrate())]
        start = last = time.monotonic()
        ops, r = first, 0
        while True:
            for op in ops:
                tally.execute(op)
                if time.monotonic() - last >= CALIBRATE_EVERY_S:
                    calibrations.append((len(tally.latencies), calibrate()))
                    last = time.monotonic()
            r += 1
            if time.monotonic() - start >= args.seconds:
                break
            ops = w.round(r)
        if calibrations[-1][0] < len(tally.latencies):
            calibrations.append((len(tally.latencies), calibrate()))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        result.update(tally.summary(), rounds=r, latencies=tally.latencies,
                      calibrations=calibrations,
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
        print(json.dumps(result))
        return 0

    import tracing

    # untraced and traced passes alternate, twice, so that neither side
    # always runs first; the counts cover both traced passes
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for _ in range(2):
        for r in range(w.traced_rounds):
            for op in w.round(r):
                plain.execute(op)
        if args.workload == "cli_cold":
            w.traced = True  # the spans are recorded in each CLI child
            patched = []
        else:
            patched = tracing.install(tracer)
        for r in range(w.traced_rounds):
            for op in w.round(r):
                traced.execute(op)
        tracing.uninstall(patched)
        w.traced = False
    spans = tracer.as_dict()
    for child in traced.children:
        tracing.merge(spans, child["spans"])
    result.update(traced.summary(), untraced_busy_s=plain.summary()["busy_s"],
                  untraced_sha256=plain.summary()["inputs_sha256"], spans=spans,
                  notes=traced.notes,
                  children=[{k: c[k] for k in ("command_s", "imports")} for c in traced.children])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
