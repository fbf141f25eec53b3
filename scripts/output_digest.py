#!/usr/bin/env python3
"""One SHA-256 digest over every file that a benchmark workload's
operations write, so that two versions of swstab can be compared for
byte-identical output with one command each.

The workload (`design` or `normmin-dense`) comes from
perfbench/workloads.py, run as is: its generator writes the seeded inputs
and its own operation calls `swstab.cli.main`, the command line that users
run, in a temporary directory.  After each of the first COUNT operations
the digest takes the name and the bytes of every file in the operation's
output directory, in name order.  One line per file, "<op> <file>
<sha256>", comes before the digest, so that two versions can be diffed
file by file; the digest is the last line.

Usage: PYTHONPATH=src python scripts/output_digest.py --workload design
           [--seed S] [--count K]
"""

import argparse
import hashlib
import os
import runpy
import tempfile
from pathlib import Path

from swstab.cli import main as cli_main

# run_path writes no bytecode into perfbench/
PERFBENCH = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
NAMES = ("design", "normmin-dense")


def digest(workload: str, seed: int, count: int):
    """The combined SHA-256, and (op, file name, file SHA-256) per file."""
    h, files = hashlib.sha256(), []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            w = PERFBENCH["WORKLOADS"][workload]()
            w.setup(seed)
            out = Path(PERFBENCH["OUT"])
            for i in range(min(count, w.pool)):
                PERFBENCH["clear_outputs"]()
                w.run(cli_main, i)
                for path in sorted(out.iterdir()):
                    data = path.read_bytes()
                    h.update(f"{path.name}\0{len(data)}\0".encode() + data)
                    files.append((i, path.name, hashlib.sha256(data).hexdigest()))
        finally:
            os.chdir(cwd)
    return h.hexdigest(), files


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int,
                    help="operations to digest, at most the workload's pool "
                         "(default: the whole pool)")
    args = ap.parse_args(argv)
    pool = PERFBENCH["WORKLOADS"][args.workload].pool
    count = pool if args.count is None else args.count
    combined, files = digest(args.workload, args.seed, count)
    for op, name, sha in files:
        print(op, name, sha)
    print(combined)


if __name__ == "__main__":
    main()
