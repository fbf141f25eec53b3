import json

import numpy as np
import pytest

from swstab import cli
from swstab.model import load_system, system_to_dict
from swstab.signals import load_signal, example_signal
from swstab import presets


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def example1_files(tmp_path):
    sys_path = tmp_path / "system.json"
    sig_path = tmp_path / "signal.json"
    sys_path.write_text(json.dumps(system_to_dict(presets.example_1())))
    sig_path.write_text(json.dumps(
        {"segments": [{"index": 1, "duration": 2.0},
                      {"index": 2, "duration": 2.0}]}))
    return sys_path, sig_path


class TestAnalyze:
    def test_stable_report(self, tmp_path, example1_files):
        sys_path, sig_path = example1_files
        out = tmp_path / "out"
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--eta", "1.1", "--out", out])
        assert code == cli.EXIT_OK
        report = json.loads((out / "analysis.json").read_text())
        assert report["is_stable"] is True
        assert report["eta"] == 1.1
        assert report["spectral_radius"] < 1.0
        assert report["det_oracle"] == pytest.approx(report["determinant"],
                                                     rel=1e-9)
        assert report["lemma4_bound_holds"] in (True, False)
        np.testing.assert_allclose(report["common_equilibrium"], [0.0, -1.0],
                                   atol=1e-9)
        assert report["version"] == cli.__version__
        assert report["config"]["command"] == "analyze"

    def test_unstable_exit_code_with_report(self, tmp_path, example1_files):
        sys_path, sig_path = example1_files
        out = tmp_path / "out"
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--eta", "2.0", "--out", out])
        assert code == cli.EXIT_UNSTABLE
        report = json.loads((out / "analysis.json").read_text())
        assert report["is_stable"] is False

    def test_missing_file_is_invalid(self, tmp_path):
        code = run_cli(["analyze", "--system", tmp_path / "nope.json",
                        "--signal", tmp_path / "nope2.json", "--out", tmp_path])
        assert code == cli.EXIT_INVALID

    @pytest.mark.parametrize("flag, text", [
        pytest.param("--signal", "{not json", id="not-json"),
        pytest.param("--system", '{"subsystems": 5}', id="subsystems-int"),
        pytest.param("--system", "[1]", id="system-list"),
        pytest.param("--system", '{"subsystems": [{"A": {"a": 1}}]}',
                     id="matrix-object"),
        pytest.param("--signal", '{"segments": [5]}', id="segment-int"),
        pytest.param("--signal", '{"segments": [{"index": null, "duration": 1}]}',
                     id="index-null"),
    ])
    def test_malformed_json_is_invalid(self, tmp_path, example1_files,
                                       flag, text):
        paths = dict(zip(("--system", "--signal"), example1_files))
        paths[flag] = tmp_path / "bad.json"
        paths[flag].write_text(text)
        code = run_cli(["analyze", "--system", paths["--system"],
                        "--signal", paths["--signal"], "--out", tmp_path])
        assert code == cli.EXIT_INVALID

    def test_single_stable_subsystem(self, tmp_path):
        sys_path = tmp_path / "s.json"
        sig_path = tmp_path / "g.json"
        sys_path.write_text(json.dumps(
            {"subsystems": [{"A": [[-1.0, 0.0], [0.0, -2.0]]}]}))
        sig_path.write_text(json.dumps(
            {"segments": [{"index": 1, "duration": 1.0}]}))
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        assert json.loads((tmp_path / "analysis.json").read_text())["is_stable"]


class TestSynthesize:
    def test_writes_combination_and_grid(self, tmp_path, example1_files):
        sys_path, _ = example1_files
        out = tmp_path / "out"
        code = run_cli(["synthesize", "--system", sys_path,
                        "--resolution", "0.05", "--eta-max", "3",
                        "--grid-points", "30", "--out", out])
        assert code == cli.EXIT_OK
        comb = json.loads((out / "combination.json").read_text())
        assert comb["found"] and comb["abscissa"] < 0.0
        search = json.loads((out / "eta_search.json").read_text())
        assert search["eta_star"] > 0.0
        lines = (out / "eta_grid.csv").read_text().strip().split("\n")
        assert lines[0] == "eta,spectral_radius"
        assert len(lines) == 31

    def test_infeasible_returns_unstable(self, tmp_path):
        sys_path = tmp_path / "s.json"
        sys_path.write_text(json.dumps({"subsystems": [
            {"A": [[1.0, 0.0], [0.0, 1.0]]},
            {"A": [[1.0, 0.0], [0.0, -1.0]]}]}))
        code = run_cli(["synthesize", "--system", sys_path,
                        "--resolution", "0.1", "--out", tmp_path])
        assert code == cli.EXIT_UNSTABLE
        assert not json.loads(
            (tmp_path / "combination.json").read_text())["found"]


class TestSimulate:
    def test_circle_trajectories(self, tmp_path, example1_files):
        sys_path, sig_path = example1_files
        out = tmp_path / "out"
        code = run_cli(["simulate", "--system", sys_path, "--signal", sig_path,
                        "--eta", "1.1", "--t-end", "10", "--dt", "0.5",
                        "--circle", "4", "--out", out])
        assert code == cli.EXIT_OK
        summary = json.loads((out / "simulate.json").read_text())
        assert len(summary["trajectories"]) == 4
        header = (out / "trajectory_00.csv").read_text().split("\n")[0]
        assert header == "t,x1,x2,active"

    def test_divergence_reported(self, tmp_path):
        sys_path = tmp_path / "s.json"
        sig_path = tmp_path / "g.json"
        sys_path.write_text(json.dumps(
            {"subsystems": [{"A": [[8.0]]}]}))
        sig_path.write_text(json.dumps(
            {"segments": [{"index": 1, "duration": 1.0}]}))
        code = run_cli(["simulate", "--system", sys_path, "--signal", sig_path,
                        "--x0", "1", "--t-end", "20", "--dt", "1",
                        "--out", tmp_path])
        assert code == cli.EXIT_UNSTABLE
        summary = json.loads((tmp_path / "simulate.json").read_text())
        assert summary["diverged"]


class TestCycleCommand:
    def test_limit_cycle_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["example", "2", "--eta", "0.5", "--t-end", "20",
                        "--dt", "0.5", "--out", out])
        assert code == cli.EXIT_OK
        cyc = json.loads((out / "cycle.json").read_text())
        np.testing.assert_allclose(cyc["average_equilibrium"], [0.0, 3.0],
                                   atol=1e-9)
        assert cyc["practical_radius"] > 0.0
        assert (out / "orbit.csv").exists()


class TestNormMin:
    def test_runs_and_converges_linear(self, tmp_path):
        # linear part of the benchmark system: the policy drives x to 0
        sys_path = tmp_path / "lin.json"
        sys_path.write_text(json.dumps({"subsystems": [
            {"A": presets.A1.tolist()}, {"A": presets.A2.tolist()}]}))
        out = tmp_path / "out"
        code = run_cli(["normmin", "--system", sys_path, "--x0", "1,0",
                        "--t-end", "20", "--dt", "0.01", "--out", out])
        assert code == cli.EXIT_OK
        rows = (out / "trajectory_00.csv").read_text().strip().split("\n")
        last = [float(v) for v in rows[-1].split(",")]
        assert np.hypot(last[1], last[2]) < 0.05


class TestExample:
    def test_example1_pipeline(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["example", "1", "--eta", "1.1", "--t-end", "60",
                        "--dt", "0.5", "--out", out])
        assert code == cli.EXIT_OK
        report = json.loads((out / "analysis.json").read_text())
        assert report["is_stable"]
        summary = json.loads((out / "simulate.json").read_text())
        assert len(summary["trajectories"]) == 8
        last = (out / "trajectory_00.csv").read_text().strip().split("\n")[-1]
        vals = [float(v) for v in last.split(",")]
        assert np.hypot(vals[1], vals[2] + 1.0) < 1e-3

    def test_written_specs_round_trip(self, tmp_path):
        out = tmp_path / "out"
        run_cli(["example", "1", "--eta", "1.1", "--t-end", "5",
                 "--dt", "0.5", "--out", out])
        sys_ = load_system(out / "system.json")
        sig = load_signal(out / "signal.json")
        want = presets.example_1()
        for a, b in zip(sys_.subsystems, want.subsystems):
            np.testing.assert_allclose(a.A, b.A)
            np.testing.assert_allclose(a.b, b.b)
        assert sig == example_signal(1.1)

    def test_outputs_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            run_cli(["example", "2", "--eta", "0.5", "--t-end", "10",
                     "--dt", "0.5", "--out", out])
        for name in ("system.json", "signal.json", "cycle.json", "orbit.csv",
                     "trajectory_03.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            if name.endswith(".json"):
                # embedded config carries the differing output paths
                a = a.replace(str(out1).encode(), b"OUT")
                b = b.replace(str(out2).encode(), b"OUT")
            assert a == b, name


class TestFlags:
    def test_tol_parsing(self):
        assert cli._parse_tols(["common_equilibrium=1e-6"]) == {
            "common_equilibrium": 1e-6}
        with pytest.raises(ValueError):
            cli._parse_tols(["oops"])

    def test_k_list_parsing(self):
        assert cli._parse_k_list("1,2,4") == [1, 2, 4]
        assert cli._parse_k_list(None) == list(cli.DEFAULT_K_LIST)
        with pytest.raises(ValueError):
            cli._parse_k_list("0,2")
