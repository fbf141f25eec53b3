#!/usr/bin/env python3
"""One SHA-256 digest over the synthesis results of the benchmark's
`design` systems, so that two versions of swstab can be compared for
byte-identical reports with one command each.

The systems are those of perfbench's `design` workload at the given seed
(its generator is run as is).  For each of the first COUNT systems the
digest takes the JSON of find_stable_combination at resolution 0.01 and,
when that finds a stable combination, of max_stable_eta at its defaults:
what `synthesize --resolution 0.01` writes, without the config block.

Usage: PYTHONPATH=src python scripts/synthesis_digest.py [--seed S] [--count K]
"""

import argparse
import hashlib
import json
import os
import runpy
import tempfile
from pathlib import Path

from swstab.model import load_system
from swstab.synthesis import find_stable_combination, max_stable_eta

# run_path writes no bytecode into perfbench/
WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


def digest(seed: int, count: int) -> str:
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            design = WORKLOADS["Design"]()
            design.setup(seed)          # writes in/system_000.json, ...
            for k in range(min(count, design.pool)):
                sys_ = load_system(f"in/system_{k:03d}.json")
                comb = find_stable_combination(
                    [sub.A for sub in sys_.subsystems], resolution=0.01)
                reports = [comb.to_dict()]
                if comb.found:
                    reports.append(max_stable_eta(sys_, comb.weights).to_dict())
                for report in reports:
                    h.update(json.dumps(report, sort_keys=True).encode())
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    pool = WORKLOADS["Design"].pool
    ap.add_argument("--count", type=int, default=pool,
                    help=f"systems to digest, at most the pool of {pool}")
    args = ap.parse_args(argv)
    print(digest(args.seed, args.count))


if __name__ == "__main__":
    main()
