#!/usr/bin/env python3
"""Reproduce the common-equilibrium benchmark: stability reports at a large
and a vanishing dwell scale, plus trajectories from the unit circle.

Usage: python scripts/run_example1.py [OUT_DIR]
"""

import sys
from pathlib import Path

from swstab.cli import main as swstab_main

ETAS = (1.1, 1e-3)


def command(eta: float, out: str) -> list[str]:
    """The swstab command line that runs preset 1 at dwell scale eta."""
    return ["example", "1", "--eta", str(eta), "--t-end", "60",
            "--dt", "0.05", "--circle", "8", "--out", out]


def run(out_dir: str) -> int:
    status = 0
    for eta in ETAS:
        code = swstab_main(command(eta, str(Path(out_dir) / f"eta_{eta}")))
        print(f"eta = {eta}: exit {code}")
        status = max(status, code)
    return status


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1] if len(sys.argv) > 1 else "out/example1"))
