"""One workload in one fresh interpreter.

Started by ``run.py``.  Imports ``swstab.cli``, writes the seeded inputs
and prints ``ready`` (the end of set-up); then, unless ``--setup-only``,
runs the closed-loop timed phase and prints one JSON report line.  Each
operation's outputs are checked by the independent oracles in
``workloads.py`` outside the timed calls.  Anything else the program
prints goes to stderr, so stdout carries only these two lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, clear_outputs, output_bytes

SRC = Path(__file__).resolve().parent.parent / "src"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


class Loop:
    """Closed loop over the workload: one op at a time, each one checked."""

    def __init__(self, workload, main, seconds: float):
        self.w, self.main = workload, main
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.op_time = 0.0          # summed latency of the timed operations
        self.seconds = seconds
        self.deadline = time.monotonic() + 1.5 * seconds + 30.0
        self.last_state = None

    def op(self, i: int, timed: bool = True) -> float:
        clear_outputs()
        t0 = time.perf_counter()
        try:
            latency, state = self.w.run(self.main, i)
            errors = self.w.check(i, state)
        except Exception:           # a raising operation is a failed one
            latency, state = time.perf_counter() - t0, None
            errors = [traceback.format_exc(limit=3)]
        self.last_state = state
        if timed:
            self.attempted += 1
            self.op_time += latency
            if errors:
                self.failed += 1
                self.errors += [f"op {i}: {e}" for e in errors]
        return latency

    def done(self) -> bool:
        return self.op_time >= self.seconds or time.monotonic() > self.deadline


def timed_phase(w, main, seconds) -> dict:
    loop = Loop(w, main, seconds)
    for i in range(w.warmup):
        loop.op(i, timed=False)
    latencies = []
    while not loop.done():
        latencies.append(loop.op(loop.attempted % w.pool))
    return {"latencies": latencies, "loop": loop}


def traced_phase(w, main, seconds) -> dict:
    """Alternate each input untraced and traced, in whole cycles of the
    first ``trace_pool`` inputs, so span counts per operation are exact and
    the tracing overhead compares like with like."""
    loop = Loop(w, main, seconds)
    for i in range(w.warmup):
        loop.op(i, timed=False)
    tracer = Tracer()
    untraced = traced = 0.0
    cycles, extra = [], {"cli.csv_bytes": 0, "cli.json_bytes": 0,
                         "synthesis.abscissa_evals": 0}
    while len(cycles) < 2 or not loop.done():
        for i in range(w.trace_pool):
            untraced += loop.op(i)
            tracer.install()
            try:
                traced += loop.op(i)
            finally:
                tracer.uninstall()
            sizes = output_bytes()
            extra["cli.csv_bytes"] += sizes["csv"]
            extra["cli.json_bytes"] += sizes["json"]
            extra["synthesis.abscissa_evals"] += w.abscissa_evals(loop.last_state)
        counts = {k: v for k, v in tracer.snapshot().items()
                  if not k.endswith(".self_s")}
        counts.update(extra)
        cycles.append(counts)
        if time.monotonic() > loop.deadline:
            break
    ops = len(cycles) * w.trace_pool
    per_cycle = [{k: c[k] - (p[k] if p else 0) for k in c}
                 for p, c in zip([None] + cycles, cycles)]
    repeat = all(c == per_cycle[0] for c in per_cycle)
    metrics = {}
    for k, v in list(tracer.snapshot().items()) + list(extra.items()):
        if k.endswith(".self_s"):
            k, v = k[:-len("_s")] + "_ms", 1000.0 * v
        metrics[k] = v / ops
    metrics["trace.overhead"] = 1.0 - untraced / traced
    return {"metrics": metrics, "traced_ops": ops, "cycles": len(cycles),
            "counters_repeat": repeat, "cycle_counts": per_cycle[0],
            "loop": loop}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import swstab.cli

    if not Path(swstab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"swstab imported from {swstab.cli.__file__}, "
                         f"not from {SRC}")
    w = WORKLOADS[args.workload]()
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    w.setup(args.seed)
    print("ready", file=channel, flush=True)
    if args.setup_only:
        return 0

    def call_cli(argv):
        # looked up per call, so the traced run's wrapper is the one called
        return swstab.cli.main(argv)

    phase = traced_phase if args.trace else timed_phase
    report = phase(w, call_cli, args.seconds)
    loop = report.pop("loop")
    report.update({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    })
    print(json.dumps(report), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
