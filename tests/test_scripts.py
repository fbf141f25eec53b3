"""Smoke tests: the experiment scripts run and write what they document."""

import json
import os
import re
import runpy
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
                           ("normmin-dense", "normmin.json"),
                           ("examples", "trajectory_07.csv")):
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


def canned_run(tail_ms, rss_mb, setup_s, failed=0, digest=None):
    """The stdout of one perfbench/run.py invocation: human lines, then the
    JSON line; a traced run names its counter digest."""
    human = "workload design, seed 1, 55 s, trace 0: nproc=2\n"
    if digest:
        human += f"8 traced operations in 3 cycles; counter digest {digest}\n"
    metrics = {"op_tail_ms": {"value": tail_ms, "unit": "ms"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    return human + json.dumps({"correct": failed == 0, "attempted": 100,
                               "failed": failed, "metrics": metrics}) + "\n"


def test_bench_pairs_summary():
    # ten canned pairs: op_tail_ms falls by 7 ms with one lost pair, a
    # spread the base's quartiles do not cover; rss ties; setup_s spreads
    # wider than its bound; one change run fails an operation
    bench = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parse = bench["parse_run"]
    base_tail = [50.0, 51.0, 49.0, 52.0, 50.5, 48.0, 51.5, 49.5, 50.0, 45.0]
    change_tail = [43.0, 44.0, 42.0, 45.0, 43.5, 41.0, 44.5, 42.5, 43.0, 46.0]
    base_setup = [0.5, 0.9, 0.6, 0.8, 0.55, 0.95, 0.5, 0.9, 0.6, 0.85]
    pairs = [(parse(canned_run(b, 60.0, s)),
              parse(canned_run(c, 60.0, s + 0.01, failed=int(k == 3))))
             for k, (b, c, s) in enumerate(zip(base_tail, change_tail,
                                               base_setup))]
    # two traced runs per side, their per-layer metrics averaged
    traced = {"base": [parse(canned_run(40.0, 61.0, 0.5, digest="ab12")),
                       parse(canned_run(44.0, 61.0, 0.7, digest="ab12"))],
              "change": [parse(canned_run(35.0, 61.0, 0.5, digest="ab12")),
                         parse(canned_run(36.0, 62.0, 0.6, digest="ab12",
                                          failed=1))]}
    record = bench["summarize"](pairs, traced, spec)
    tail = record["metrics"]["op_tail_ms"]
    assert (tail["change_wins"], tail["base_wins"]) == (9, 1)
    assert tail["base"]["median"] == 50.0
    assert (tail["base"]["q1"], tail["base"]["q3"]) == (49.125, 50.875)
    assert tail["change"]["median"] == 43.25
    assert tail["base"]["values"] == base_tail
    assert tail["verdict"] == "gain"
    rss = record["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["base_wins"]) == (0, 0)
    assert rss["verdict"] == "within bound"
    assert record["metrics"]["setup_s"]["verdict"] == "unresolved"
    assert record["operations"] == {
        "base": {"attempted": 1000, "failed": 0, "runs_correct": True},
        "change": {"attempted": 1000, "failed": 1, "runs_correct": False}}
    trace = record["trace"]
    assert trace["base"]["counter_digests"] == ["ab12", "ab12"]
    assert trace["digests_equal"]
    assert trace["base"]["metrics"]["op_tail_ms"] == 42.0
    assert trace["change"]["metrics"] == {
        "op_tail_ms": 35.5, "peak_rss_mb": 61.5, "setup_s": 0.55}
    assert (trace["change"]["attempted"], trace["change"]["failed"]) == (200, 1)
    assert not trace["change"]["correct"] and trace["base"]["correct"]
    # one run of either side with another digest: not equal
    traced["change"][1] = parse(canned_run(36.0, 62.0, 0.6, digest="cd34"))
    assert not bench["summarize"](pairs, traced, spec)["trace"][
        "digests_equal"]
    # a change slower than the bound, with a tight base spread
    worse = bench["compare"]([10.0] * 4, [13.0] * 4, "lower", 0.25)
    assert worse["verdict"] == "worse than bound"
    assert worse["relative_difference"] == 0.3
