#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

For each case, a workload and seed, runs `perfbench/run.py --trace 0`
PAIRS times in each tree, alternating which tree runs first, then two
`--trace 1` runs in each, base then change and change then base, each
for the run_seconds of BENCHMARK.json.  The
base revision is exported with `git archive` into a temporary directory,
so the base side runs its committed files and the change side the
working tree as it is, with the same interpreter and settings.

The JSON file, rewritten as each case ends, holds, per case and per
end-to-end metric of BENCHMARK.json: each side's values in run order,
median and quartiles (statistics.quantiles, inclusive method); the pairs
each side won (ties count for neither); the change's relative difference
from the base median; and a verdict.  The verdict is "gain" where the
change won at least nine tenths of the pairs and its median is better
than the base's by more than the base's interquartile range;
"unresolved" where the base's interquartile range exceeds the metric's
bound (relative to its median) and not every change run beat every base
run; else "within bound" or "worse than bound", by the metric's bound on
the relative difference of the medians.  It also holds each side's
failed and attempted operations and, per side, its two traced runs'
counter digests and the mean of their per-layer metrics, so that machine
load that drifts over the case weighs on both sides alike.

Usage: python scripts/bench_pairs.py --base REV --case design:1
           [--case normmin-dense:1 ...] [--pairs 10] --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAIN_SHARE = 0.9        # share of pairs the change must win to claim a gain


def parse_run(stdout: str) -> dict:
    """One run.py invocation's JSON report (its last stdout line), with the
    traced run's counter digest, if it names one, as "counter_digest"."""
    report = json.loads(stdout.strip().splitlines()[-1])
    match = re.search(r"counter digest ([0-9a-f]+)", stdout)
    if match:
        report["counter_digest"] = match.group(1)
    return report


def spread(values: list) -> dict:
    """Values in run order, with their median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base: list, change: list, better: str, bound: float) -> dict:
    """One metric over paired runs (base[k] and change[k] are pair k)."""
    sign = 1.0 if better == "lower" else -1.0
    # gain > 0 where the change is better
    gains = [sign * (b - c) for b, c in zip(base, change)]
    b, c = spread(base), spread(change)
    iqr = b["q3"] - b["q1"]
    median_gain = sign * (b["median"] - c["median"])
    wins = sum(g > 0.0 for g in gains)
    relative = (c["median"] - b["median"]) / b["median"]
    # every change run better than every base run
    apart = (max(change) < min(base) if better == "lower"
             else min(change) > max(base))
    if wins >= math.ceil(GAIN_SHARE * len(gains)) and median_gain > iqr:
        verdict = "gain"
    elif iqr > bound * abs(b["median"]) and not apart:
        verdict = "unresolved"
    elif sign * relative <= bound:
        verdict = "within bound"
    else:
        verdict = "worse than bound"
    return {"base": b, "change": c, "change_wins": wins,
            "base_wins": sum(g < 0.0 for g in gains),
            "relative_difference": relative, "bound": bound,
            "verdict": verdict}


def summarize(pairs: list, traced: dict, spec: dict) -> dict:
    """The record of one workload and seed: pairs is a list of (base
    report, change report), traced maps "base" and "change" to a list of
    traced reports, spec is BENCHMARK.json."""
    def values(k, name):
        return [p[k]["metrics"][name]["value"] for p in pairs]
    metrics = {m["name"]: compare(values(0, m["name"]), values(1, m["name"]),
                                  m["better"], m["bound"])
               for m in spec["end_to_end"]}
    operations = {side: {"attempted": sum(p[k]["attempted"] for p in pairs),
                         "failed": sum(p[k]["failed"] for p in pairs),
                         "runs_correct": all(p[k]["correct"] for p in pairs)}
                  for k, side in enumerate(("base", "change"))}
    trace = {side: {"counter_digests": [r.get("counter_digest")
                                        for r in reports],
                    "correct": all(r["correct"] for r in reports),
                    "attempted": sum(r["attempted"] for r in reports),
                    "failed": sum(r["failed"] for r in reports),
                    "metrics": {name: statistics.fmean(
                        r["metrics"][name]["value"] for r in reports)
                        for name in reports[0]["metrics"]}}
             for side, reports in traced.items()}
    digests = {d for side in ("base", "change")
               for d in trace[side]["counter_digests"]}
    trace["digests_equal"] = len(digests) == 1
    return {"pairs": len(pairs), "metrics": metrics,
            "operations": operations, "trace": trace}


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One run.py invocation in tree; its parsed report."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    print(f"{tree}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def export(rev: str, into: Path) -> str:
    """The commit rev names, its files written under into."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True, check=True
                         ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def case(text: str) -> tuple[str, int]:
    """A --case value, WORKLOAD:SEED, as (workload, seed)."""
    workload, _, seed = text.rpartition(":")
    if not workload or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision of the base side")
    ap.add_argument("--case", action="append", required=True, type=case,
                    help="WORKLOAD:SEED, once per case")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    change = subprocess.run(["git", "describe", "--always", "--dirty"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        record = {
            "base": {"revision": args.base,
                     "commit": export(args.base, base_tree)},
            "change": {"working_tree": change},
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0|1",
            "pairs": args.pairs,
            "order": "alternated: pair k runs the base first for even k; "
                     "traced runs base, change, change, base",
            "results": [],
        }
        trees = {"base": base_tree, "change": ROOT}
        for workload, seed in args.case:
            pairs = []
            for k in range(args.pairs):
                order = ("base", "change")[::1 if k % 2 == 0 else -1]
                got = {side: run(trees[side], workload, seed, seconds, 0)
                       for side in order}
                pairs.append((got["base"], got["change"]))
            traced = {"base": [], "change": []}
            for side in ("base", "change", "change", "base"):
                traced[side].append(run(trees[side], workload, seed,
                                        seconds, 1))
            record["results"].append({"workload": workload, "seed": seed,
                                      **summarize(pairs, traced, spec)})
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
