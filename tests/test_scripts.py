"""Smoke tests: the experiment scripts run and write what they document."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_eta_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("eta_sweep.py", out)
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == "eta,spectral_radius,is_stable,bound_holds"
    assert len(rows) == 101


def test_run_example2(tmp_path):
    proc = run_script("run_example2.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for eta in (0.5, 0.25, 0.125):
        sub = tmp_path / f"eta_{eta}"
        cycle = json.loads((sub / "cycle.json").read_text())
        assert cycle["practical_radius"] > 0.0
        header = (sub / "orbit.csv").read_text().split("\n", 1)[0]
        assert header == "t,x1,x2,active"
