"""Smoke tests: the experiment scripts run and write what they document."""

import json
import os
import re
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


def test_run_example1(tmp_path):
    proc = run_script("run_example1.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for sub in ("eta_1.1", "eta_0.001"):
        csvs = sorted((tmp_path / sub).glob("trajectory_*.csv"))
        assert len(csvs) == 8
        for path in csvs:
            rows = path.read_text().splitlines()
            assert rows[0] == "t,x1,x2,active" and len(rows) == 1202


def test_run_example2(tmp_path):
    proc = run_script("run_example2.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for eta in (0.5, 0.25, 0.125):
        sub = tmp_path / f"eta_{eta}"
        cycle = json.loads((sub / "cycle.json").read_text())
        assert cycle["practical_radius"] > 0.0
        header = (sub / "orbit.csv").read_text().split("\n", 1)[0]
        assert header == "t,x1,x2,active"


def test_output_digest():
    for workload, name in (("design", "combination.json"),
                           ("normmin-dense", "normmin.json")):
        outputs = []
        for _ in range(2):
            proc = run_script("output_digest.py", "--workload", workload,
                              "--seed", 1, "--count", 2)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], workload
        *lines, combined = outputs[0].splitlines()
        assert re.fullmatch(r"[0-9a-f]{64}", combined), workload
        rows = [line.split(" ") for line in lines]
        assert [op for op, _, _ in rows] == sorted(op for op, _, _ in rows)
        assert {op for op, _, _ in rows} == {"0", "1"}, workload
        assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for _, _, sha in rows)
        assert name in {file for _, file, _ in rows}, workload
