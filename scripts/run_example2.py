#!/usr/bin/env python3
"""Reproduce the limit-cycle benchmark: orbit, practical radius and
trajectories for the system whose subsystems disagree on the equilibrium.

Usage: python scripts/run_example2.py [OUT_DIR]
"""

import json
import sys
from pathlib import Path

from swstab.cli import main as swstab_main

ETAS = (0.5, 0.25, 0.125)


def command(eta: float, out: str) -> list[str]:
    """The swstab command line that runs preset 2 at dwell scale eta."""
    return ["example", "2", "--eta", str(eta), "--t-end", "60",
            "--dt", "0.05", "--circle", "8", "--out", out]


def run(out_dir: str) -> int:
    status = 0
    for eta in ETAS:
        sub = Path(out_dir) / f"eta_{eta}"
        code = swstab_main(command(eta, str(sub)))
        cycle = json.loads((sub / "cycle.json").read_text())
        print(f"eta = {eta}: exit {code}, "
              f"practical radius {cycle['practical_radius']:.4f}")
        status = max(status, code)
    return status


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1] if len(sys.argv) > 1 else "out/example2"))
