"""swstab benchmark: one workload per invocation, last stdout line is JSON.

    python3 perfbench/run.py --workload design --seed 1 --seconds 55 --trace 0

Run from the repository root.  The package is imported from ``src/`` (no
install step).  With ``--trace 0`` the untraced run reports the end-to-end
metrics; with ``--trace 1`` a traced run reports per-layer spans and
counters.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3          # fresh interpreters timed per run for setup_s
WINDOWS = 5             # ops_per_s is the median over this many windows
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
BUDGET_S = 170.0        # hard limit on the whole invocation


class Child:
    """A workload child process; ``setup_s`` is spawn-to-``ready``."""

    def __init__(self, args, workdir: Path, deadline: float, setup_only: bool):
        env = dict(os.environ)
        paths = [str(ROOT / "src")] + [env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        # one thread per process: the load must not use more threads than cores
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        argv = [sys.executable, str(HERE / "child.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", str(workdir)]
        if setup_only:
            argv.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                     self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline().strip()
        self.setup_s = time.perf_counter() - t0
        if ready != "ready":
            self.close()
            raise RuntimeError(f"workload child failed during set-up "
                               f"(exit {self.proc.returncode})")

    def report(self) -> dict:
        line = self.proc.stdout.readline()
        self.close()
        if self.proc.returncode != 0 or not line:
            raise RuntimeError(f"workload child exited {self.proc.returncode}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def throughput(latencies) -> float:
    """Median over consecutive windows of ops completed per busy second."""
    size = max(len(latencies) // WINDOWS, 1)
    chunks = [latencies[i:i + size]
              for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(len(c) / sum(c) for c in chunks)


def end_to_end(report, setups, names, out) -> dict:
    """Print all six end-to-end figures; return those named in ``names``."""
    lat = report["latencies"]
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (throughput(lat), "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "error_rate": (report["failed"] / report["attempted"], "fraction"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:12.6g} {unit}", file=out)
    print(f"op_tail_ms is p{pct:.2f} of {len(lat)} operations; "
          f"setup_s is the median of {len(setups)} fresh interpreters", file=out)
    return {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names}


def per_layer(report, units, out) -> dict:
    metrics = {}
    for name, unit in units.items():
        value = report["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:14.6g} {unit}/op", file=out)
    digest = hashlib.sha256(json.dumps(report["cycle_counts"], sort_keys=True)
                            .encode()).hexdigest()[:16]
    print(f"{report['traced_ops']} traced operations in {report['cycles']} "
          f"cycles; work counters repeat across cycles: "
          f"{report['counters_repeat']}; counter digest {digest}", file=out)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "swstab" / "cli.py").is_file():
        print(f"error: no swstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = sys.stdout
    try:
        # the JSON line carries exactly the metrics BENCHMARK.json lists
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setups = []
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            extra = Child(args, workdir, deadline, setup_only=True)
            extra.close()
            setups.append(extra.setup_s)
        child = Child(args, workdir, deadline, setup_only=False)
        setups.append(child.setup_s)
        report = child.report()
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = report["env"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: " + ", ".join(f"{k}={v}" for k, v in env.items()),
          file=out)
    for err in report["errors"]:
        print(f"FAILED {err}", file=out)
    correct = report["failed"] == 0
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(report, units, out)
        correct = correct and report["counters_repeat"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = end_to_end(report, setups, names, out)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}), file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
