#!/usr/bin/env python3
"""One SHA-256 digest over every file that a workload's operations write,
so that two versions of swstab can be compared for byte-identical output
with one command each.

The workload `design` or `normmin-dense` comes from perfbench/workloads.py,
run as is: its generator writes the seeded inputs and its own operation
calls `swstab.cli.main`, the command line that users run, in a temporary
directory.  The workload `examples` runs the five commands of
scripts/run_example1.py and scripts/run_example2.py, one operation each,
all writing to the same relative output directory; it has no seed.  After
each of the first COUNT operations the digest takes the name and the
bytes of every file in the operation's output directory, in name order.
One line per file, "<op> <file> <sha256>", comes before the digest, so
that two versions can be diffed file by file; the digest is the last line.

Usage: PYTHONPATH=src python scripts/output_digest.py
           --workload design|normmin-dense|examples [--seed S] [--count K]
"""

import argparse
import functools
import hashlib
import os
import runpy
import tempfile
from pathlib import Path
from typing import Optional

from swstab.cli import main as cli_main

# run_path writes no bytecode into perfbench/ or scripts/
SCRIPTS = Path(__file__).resolve().parent
PERFBENCH = runpy.run_path(str(SCRIPTS.parent / "perfbench" / "workloads.py"))
EXAMPLES = [runpy.run_path(str(SCRIPTS / f"run_example{k}.py")) for k in (1, 2)]
NAMES = ("design", "normmin-dense", "examples")


def operations(workload: str, seed: int) -> list:
    """The workload's operations, in order, as functions of no arguments;
    a benchmark workload writes its seeded inputs first."""
    if workload == "examples":
        return [functools.partial(cli_main,
                                  script["command"](eta, PERFBENCH["OUT"]))
                for script in EXAMPLES for eta in script["ETAS"]]
    w = PERFBENCH["WORKLOADS"][workload]()
    w.setup(seed)
    return [functools.partial(w.run, cli_main, i) for i in range(w.pool)]


def digest(workload: str, seed: int, count: Optional[int]):
    """The combined SHA-256, and (op, file name, file SHA-256) per file,
    over the first count operations (all of them for None)."""
    h, files = hashlib.sha256(), []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out = Path(PERFBENCH["OUT"])
            for i, op in enumerate(operations(workload, seed)[:count]):
                PERFBENCH["clear_outputs"]()
                op()
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
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed of a benchmark workload")
    ap.add_argument("--count", type=int,
                    help="operations to digest, at most the workload's pool "
                         "(default: the whole pool)")
    args = ap.parse_args(argv)
    if args.count is not None and args.count < 0:
        ap.error("--count must be >= 0")
    combined, files = digest(args.workload, args.seed, args.count)
    for op, name, sha in files:
        print(op, name, sha)
    print(combined)


if __name__ == "__main__":
    main()
