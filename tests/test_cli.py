import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from swstab import cli, synthesis
from swstab.model import (DEFAULT_EQUILIBRIUM_TOL, common_equilibrium,
                          load_system, system_to_dict)
from swstab.synthesis import (DEFAULT_GRID_POINTS, DEFAULT_REFINE_TOL,
                              max_stable_eta)
from swstab.signals import load_signal, example_signal
from swstab import presets
from conftest import expm_radius, shear_pair

SRC = Path(__file__).resolve().parents[1] / "src"


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


def strict_json(path):
    """A report parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def write_specs(tmp_path, matrices, durations):
    """System of linear subsystems and a signal cycling them in order."""
    sys_path = tmp_path / "s.json"
    sig_path = tmp_path / "g.json"
    sys_path.write_text(json.dumps(
        {"subsystems": [{"A": A} for A in matrices]}))
    sig_path.write_text(json.dumps({"segments": [
        {"index": k + 1, "duration": d} for k, d in enumerate(durations)]}))
    return sys_path, sig_path


@pytest.mark.parametrize("command", ["analyze", "cycle"])
def test_overflowing_monodromy_is_numerical_failure(tmp_path, capsys, command):
    # e^{50 * 20} overflows; the eigenvalue kernel reports it
    sys_path, sig_path = write_specs(tmp_path, [[[50, 0], [0, 50]]], [20.0])
    code = run_cli([command, "--system", sys_path, "--signal", sig_path,
                    "--out", tmp_path])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure: " in capsys.readouterr().err


def test_overflowing_average_is_numerical_failure(tmp_path, capsys):
    # the simplex search scales this family by 2^-1024 and finds it
    # stable; the eta search's average system then overflows
    big = np.finfo(float).max
    sys_path, _ = write_specs(tmp_path, [
        (-big * np.eye(2)).tolist(), [[-big, 1.0], [0.0, -big]],
        [[-big, 0.0], [1.0, -big]]], [1.0])
    code = run_cli(["synthesize", "--system", sys_path, "--out", tmp_path])
    assert code == cli.EXIT_NUMERICAL
    assert "average system" in capsys.readouterr().err
    # its abscissa, at most -max, is written as a number or null
    assert strict_json(tmp_path / "combination.json")["found"]


def test_rounding_scale_is_numerical_failure(tmp_path, capsys):
    # unstable (eigenvalues -0.5 +- 1), but the simplex search's power of
    # two would round 1e-300 to 0: no verdict, and no report
    sys_path, _ = write_specs(tmp_path, [[[-0.5, 1e300], [1e-300, -0.5]]],
                              [1.0])
    code = run_cli(["synthesize", "--system", sys_path, "--out", tmp_path])
    assert code == cli.EXIT_NUMERICAL
    assert "rounds an entry" in capsys.readouterr().err
    assert not (tmp_path / "combination.json").exists()


@pytest.mark.parametrize("command, run, code", [
    pytest.param("simulate", ["--t-end", "4", "--dt", "0.5"],
                 cli.EXIT_UNSTABLE, id="simulate"),
    pytest.param("normmin", ["--t-end", "10", "--dt", "1"], cli.EXIT_OK,
                 id="normmin")])
def test_overflowing_step_map_adds_no_warning(tmp_path, capsys, command, run,
                                              code):
    # e^{800} overflows: simulate crosses that map and diverges, normmin
    # builds it but never selects it; neither warns
    sys_path, sig_path = write_specs(
        tmp_path, [[[800, 0], [0, 800]], [[-1, 0], [0, -1]]], [1.0, 1.0])
    signal = ["--signal", sig_path] if command == "simulate" else []
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_cli([command, "--system", sys_path, *signal, "--x0", "1,0",
                       *run, "--out", out])
    assert got == code
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert (out / "trajectory_00.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "cycle", "simulate"])
def test_overflowing_period_is_invalid(tmp_path, capsys, command):
    # each dwell 1e308 is finite, the period 2e308 is not; simulate's
    # t_end lies inside the first segment
    sys_path, sig_path = write_specs(
        tmp_path, [[[-1, 1], [0, -2]], [[-3, 2], [0, -1]]], [1.0, 1.0])
    spec = json.loads(sig_path.read_text())
    sig_path.write_text(json.dumps({**spec, "eta": 1e308}))
    out = tmp_path / "out"
    run = (["--x0", "1,0", "--t-end", "1", "--dt", "0.5"]
           if command == "simulate" else [])
    code = run_cli([command, "--system", sys_path, "--signal", sig_path,
                    *run, "--out", out])
    assert code == cli.EXIT_INVALID
    assert "period of inf" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["analyze", "cycle", "simulate"])
def test_signal_index_beyond_system_is_invalid(tmp_path, capsys, command):
    sys_path, sig_path = write_specs(
        tmp_path, [[[-1, 1], [0, -2]], [[-3, 2], [0, -1]]], [1.0, 1.0, 1.0])
    out = tmp_path / "out"
    run = (["--x0", "1,0", "--t-end", "1", "--dt", "0.5"]
           if command == "simulate" else [])
    code = run_cli([command, "--system", sys_path, "--signal", sig_path,
                    *run, "--out", out])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: signal references subsystem 3, system has 2\n")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["analyze", "simulate", "cycle"])
def test_missing_signal_is_invalid(tmp_path, capsys, example1_files, command):
    sys_path, _ = example1_files
    out = tmp_path / "out"
    x0 = ["--x0", "1,0"] if command == "simulate" else []
    code = run_cli([command, "--system", sys_path, *x0, "--out", out])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {command} needs a switching signal (--signal)\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", ["analyze", "synthesize", "normmin"])
def test_missing_system_is_invalid(tmp_path, capsys, example1_files, command):
    _, sig_path = example1_files
    signal = ["--signal", sig_path] if command == "analyze" else []
    out = tmp_path / "out"
    code = run_cli([command, *signal, "--out", out])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: --system is required\n"
    assert not list(out.iterdir())


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
        pytest.param("--signal", '{"segments": [{"index": 1.7, "duration": 1}, '
                     '{"index": 2.9, "duration": 1}]}', id="index-fraction"),
        pytest.param("--signal", '{"segments": [{"index": true, "duration": 1}]}',
                     id="index-bool"),
        pytest.param("--system", json.dumps({"n": 2.9, "subsystems": [
            {"A": presets.A1.tolist()}, {"A": presets.A2.tolist()}]}),
                     id="n-fraction"),
        pytest.param("--system", json.dumps({"n": "2", "subsystems": [
            {"A": presets.A1.tolist()}, {"A": presets.A2.tolist()}]}),
                     id="n-string"),
        pytest.param("--system", json.dumps({"subsystems": [
            {"A": presets.A1.tolist()},
            {"A": [["-1", 0], [0, -1]]}]}), id="A-string"),
        pytest.param("--system", json.dumps({"subsystems": [
            {"A": presets.A1.tolist(), "b": [0, "1"]},
            {"A": presets.A2.tolist()}]}), id="b-string"),
        pytest.param("--signal", '{"segments": [{"index": "1", "duration": 2},'
                     ' {"index": 2, "duration": 2}]}', id="index-string"),
        pytest.param("--signal", '{"segments": [{"index": 1, "duration": "2"},'
                     ' {"index": 2, "duration": 2}]}', id="duration-string"),
        pytest.param("--signal", '{"segments": [{"index": 1, "duration": 2},'
                     ' {"index": 2, "duration": 2}], "eta": "2"}',
                     id="eta-string"),
        pytest.param("--system", json.dumps({"subsystems": [
            {"A": presets.A1.tolist()},
            {"A": [[-1.0, True], [0, -1]]}]}), id="A-bool"),
        pytest.param("--system", json.dumps({"subsystems": [
            {"A": presets.A1.tolist(), "b": [0, False]},
            {"A": presets.A2.tolist()}]}), id="b-bool"),
        pytest.param("--signal", '{"segments": [{"index": 1, "duration": true},'
                     ' {"index": 2, "duration": 2}]}', id="duration-bool"),
        pytest.param("--signal", '{"segments": [{"index": 1, "duration": 2},'
                     ' {"index": 2, "duration": 2}], "eta": true}',
                     id="eta-bool"),
    ])
    def test_malformed_json_is_invalid(self, tmp_path, capsys,
                                       example1_files, flag, text):
        paths = dict(zip(("--system", "--signal"), example1_files))
        paths[flag] = tmp_path / "bad.json"
        paths[flag].write_text(text)
        out = tmp_path / "out"
        code = run_cli(["analyze", "--system", paths["--system"],
                        "--signal", paths["--signal"], "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("flag, text, message", [
        pytest.param("--system", '{"subsystems": [{}]}',
                     'subsystem 1 has no "A"', id="A-missing"),
        pytest.param("--signal", '{"segments": [{"index": 1, "duration": 2},'
                     ' {"index": 2}]}', 'segment 2 has no "duration"',
                     id="duration-missing"),
        pytest.param("--signal", '{"segments": [{"duration": 2}]}',
                     'segment 1 has no "index"', id="index-missing"),
    ])
    def test_missing_field_is_named(self, tmp_path, capsys, example1_files,
                                    flag, text, message):
        paths = dict(zip(("--system", "--signal"), example1_files))
        paths[flag] = tmp_path / "bad.json"
        paths[flag].write_text(text)
        code = run_cli(["analyze", "--system", paths["--system"],
                        "--signal", paths["--signal"], "--out", tmp_path])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        pytest.param({"n": "1", "subsystems": [{"A": [[-1]], "b": [1]}]},
                     '"n" must be an integer, got "1"', id="n"),
        pytest.param({"n": 1, "subsystems": [{"A": [["-1"]], "b": [1]}]},
                     'subsystem 1 "A" must hold numbers, not strings', id="A"),
        pytest.param({"n": 1, "subsystems": [{"A": [[-1]], "b": ["1"]}]},
                     'subsystem 1 "b" must hold numbers, not strings', id="b"),
    ])
    def test_synthesize_refuses_strings(self, tmp_path, capsys, spec,
                                        message):
        sys_path = tmp_path / "s.json"
        sys_path.write_text(json.dumps(spec))
        code = run_cli(["synthesize", "--system", sys_path,
                        "--out", tmp_path / "out"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_singular_subsystem_has_no_common_equilibrium(self, tmp_path):
        sys_path, sig_path = write_specs(
            tmp_path, [[[0, 0], [0, -1]], [[-1, 0], [0, -1]]], [1.0, 1.0])
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        report = strict_json(tmp_path / "analysis.json")
        assert report["common_equilibrium"] is None
        assert report["is_stable"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_dwell_bound_is_false(self, tmp_path):
        # the commutator side of the dwell bound overflows to inf
        sys_path, sig_path = write_specs(
            tmp_path, [[[-1, 30], [0, -1]], [[-1, 0], [30, -1]]], [5.0, 5.0])
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--out", tmp_path])
        assert code == cli.EXIT_UNSTABLE
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["lemma4_bound_holds"] is False
        assert report["spectral_radius"] == pytest.approx(1.0216, abs=1e-4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_unstable(self, tmp_path):
        # the dwell bound's exponentials overflow to nan entries, whose
        # 2-norm is nan; the system is valid and unstable
        sys_path, sig_path = write_specs(
            tmp_path, [[[-5, -4], [2, -1]], [[18, -11], [-4, 17]]],
            [20.0, 20.0])
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--out", tmp_path])
        assert code == cli.EXIT_UNSTABLE
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["lemma4_bound_holds"] is False
        assert report["norm_condition_holds"] is False
        assert report["is_stable"] is False

    def test_zero_equilibrium_tol_is_exact_agreement(self, tmp_path,
                                                      example1_files):
        # both subsystems of preset 1 rest at (0, -1) to the last bit
        sys_path, sig_path = example1_files
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--tol", "common_equilibrium=0", "--out", tmp_path])
        assert code == cli.EXIT_OK
        report = strict_json(tmp_path / "analysis.json")
        assert report["common_equilibrium"] == [0.0, -1.0]
        assert report["config"]["tolerances"] == {"common_equilibrium": 0.0}

    @pytest.mark.parametrize("k_list", ["0,2", ","])
    def test_bad_k_list_refused(self, tmp_path, capsys, example1_files,
                                k_list):
        sys_path, sig_path = example1_files
        out = tmp_path / "out"
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        f"--k-list={k_list}", "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: k_list must be a nonempty list")
        assert err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_det_oracle_is_inf(self, tmp_path):
        # rho = e^400 is finite, the oracle's e^800 is not: null in the JSON
        sys_path, sig_path = write_specs(tmp_path, [[[200, 0], [0, 200]]], [2.0])
        code = run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                        "--out", tmp_path])
        assert code == cli.EXIT_UNSTABLE
        report = strict_json(tmp_path / "analysis.json")
        assert report["det_oracle"] is None
        assert report["is_stable"] is False


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
        # the bytes np.savetxt wrote for the same grid before the block writer
        grid = [(row["eta"], row["spectral_radius"]) for row in search["grid"]]
        buf = io.StringIO()
        np.savetxt(buf, grid, fmt="%.12g", delimiter=",",
                   header="eta,spectral_radius", comments="")
        assert (out / "eta_grid.csv").read_text() == buf.getvalue()

    @pytest.mark.parametrize("resolution", ["0", "-0.5", "nan", "1e-300",
                                            "1e-7"])
    def test_bad_resolution_is_invalid(self, tmp_path, capsys, resolution):
        sys_path, _ = write_specs(tmp_path, [[[-1, 0], [0, -1]]] * 2, [1.0])
        code = run_cli(["synthesize", "--system", sys_path,
                        f"--resolution={resolution}", "--out", tmp_path])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: resolution") and err.count("\n") == 1
        assert not (tmp_path / "combination.json").exists()

    @pytest.mark.parametrize("option", [
        "--tol=refine_tol=0", "--tol=refine_tol=-1", "--tol=refine_tol=nan",
        "--tol=refine_tol=inf", "--grid-points=0", "--eta-max=-1",
        "--eta-max=nan", "--eta-max=inf", "--grid-points=1000001"])
    def test_bad_eta_search_option_refused_first(self, tmp_path, capsys,
                                                 monkeypatch, example1_files,
                                                 option):
        def no_search(*args, **kwargs):
            raise AssertionError("simplex search run for a refused option")
        monkeypatch.setattr(cli, "find_stable_combination", no_search)
        sys_path, _ = example1_files
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(["synthesize", "--system", sys_path, option,
                        "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(out.iterdir())

    def test_refine_tol_below_float_spacing_ends(self, tmp_path,
                                                 example1_files):
        sys_path, _ = example1_files
        code = run_cli(["synthesize", "--system", sys_path, "--resolution",
                        "0.1", "--grid-points", "5", "--tol",
                        "refine_tol=1e-300", "--out", tmp_path])
        assert code == cli.EXIT_OK
        assert json.loads(
            (tmp_path / "eta_search.json").read_text())["eta_star"] > 0.0

    def test_default_tolerances_are_library_defaults(self, tmp_path,
                                                     example1_files,
                                                     monkeypatch):
        # a tolerance not given is not passed, so the library's keyword
        # default applies; one given is passed as a keyword
        seen = {}

        def recording(name):
            fn = getattr(cli, name)

            def wrapped(*args, **kwargs):
                seen.setdefault(name, []).append(kwargs)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("common_equilibrium", "max_stable_eta",
                     "check_eta_search"):
            monkeypatch.setattr(cli, name, recording(name))
        sys_path, sig_path = example1_files
        synthesize = ["synthesize", "--system", sys_path, "--resolution",
                      "0.1", "--grid-points", "5"]
        analyze = ["analyze", "--system", sys_path, "--signal", sig_path]
        for extra, out in [([], tmp_path / "default"),
                           (["--tol", "refine_tol=0.01",
                             "--tol", "common_equilibrium=1e-6"],
                            tmp_path / "given")]:
            tol = {"synthesize": extra[:2], "analyze": extra[2:]}
            run_cli(synthesize + tol["synthesize"] + ["--out", out])
            run_cli(analyze + tol["analyze"] + ["--out", out])
        assert seen["check_eta_search"] == [{}, {"refine_tol": 0.01}]
        assert [{k: v for k, v in kw.items() if k == "refine_tol"}
                for kw in seen["max_stable_eta"]] == [{}, {"refine_tol": 0.01}]
        assert seen["common_equilibrium"] == [{}, {"tol": 1e-6}]
        for fn, name, default in [
                (max_stable_eta, "refine_tol", DEFAULT_REFINE_TOL),
                (synthesis.check_eta_search, "refine_tol", DEFAULT_REFINE_TOL),
                (common_equilibrium, "tol", DEFAULT_EQUILIBRIUM_TOL)]:
            assert inspect.signature(fn).parameters[name].default == default
        assert (inspect.signature(max_stable_eta).parameters["grid_points"]
                .default == cli.RunConfig.grid_points == DEFAULT_GRID_POINTS)

    def test_default_resolution_fits_the_grid(self, tmp_path, monkeypatch):
        # room for 10 divisions of 5 weights, not 11: the default 0.01 is
        # coarsened to 0.1, and an explicit 0.01 is still refused
        monkeypatch.setattr(synthesis, "MAX_GRID_ENTRIES", 5 * math.comb(14, 4))
        sys_path, _ = write_specs(
            tmp_path, [[[-1, k], [0, -1]] for k in range(5)], [1.0])
        code = run_cli(["synthesize", "--system", sys_path,
                        "--grid-points", "5", "--out", tmp_path])
        assert code == cli.EXIT_OK
        comb = json.loads((tmp_path / "combination.json").read_text())
        assert comb["config"]["resolution"] == 0.1
        assert comb["evaluations"] > math.comb(14, 4)
        search = json.loads((tmp_path / "eta_search.json").read_text())
        assert search["config"]["resolution"] == 0.1
        code = run_cli(["synthesize", "--system", sys_path,
                        "--resolution", "0.01", "--out", tmp_path / "fine"])
        assert code == cli.EXIT_INVALID

    def test_default_resolution_for_few_subsystems(self, tmp_path,
                                                  example1_files):
        sys_path, sig_path = example1_files
        run_cli(["synthesize", "--system", sys_path, "--grid-points", "5",
                 "--out", tmp_path])
        run_cli(["analyze", "--system", sys_path, "--signal", sig_path,
                 "--out", tmp_path])
        for name in ("combination.json", "analysis.json"):
            report = json.loads((tmp_path / name).read_text())
            assert report["config"]["resolution"] == cli.RunConfig.resolution

    def test_overflowing_eta_grid_is_not_stable(self, tmp_path):
        # the default eta_max reaches eta where the monodromy overflows: its
        # rho is null in the JSON and inf in the CSV
        mats = shear_pair(300.0)
        sys_path, _ = write_specs(tmp_path, [A.tolist() for A in mats], [1.0])
        out = tmp_path / "out"
        code = run_cli(["synthesize", "--system", sys_path, "--out", out])
        assert code == cli.EXIT_OK
        comb = strict_json(out / "combination.json")
        search = strict_json(out / "eta_search.json")
        assert any(row["spectral_radius"] is None for row in search["grid"])
        assert ",inf\n" in (out / "eta_grid.csv").read_text()
        eta = search["eta_star"]
        assert eta > 0.0
        assert expm_radius(mats, comb["alpha"], comb["period"], eta) < 1.0

    @pytest.mark.parametrize("eta_max", ["1e-15", "1e-200"])
    def test_no_stable_eta_is_numerical_failure(self, tmp_path, capsys,
                                                eta_max):
        # rho rounds to 1 on the whole grid; the bisection gives up before
        # a dwell time underflows, after combination.json is written
        sys_path = tmp_path / "s.json"
        sys_path.write_text(json.dumps({"n": 2, "subsystems": [
            {"A": [[-1, 0], [0, -2]], "b": [1, 0]},
            {"A": [[-3, 1], [0, -1]]}]}))
        out = tmp_path / "out"
        code = run_cli(["synthesize", "--system", sys_path,
                        "--eta-max", eta_max, "--out", out])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: no stable eta found")
        assert "eta = 9.88131e-324" in err
        comb = strict_json(out / "combination.json")
        assert comb["alpha"] == pytest.approx([2 / 3, 1 / 3])
        assert not (out / "eta_search.json").exists()

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

    def test_last_sample_at_t_end(self, tmp_path, example1_files):
        # samples at 0.3, 0.6 and 0.9, then t_end itself
        sys_path, sig_path = example1_files
        code = run_cli(["simulate", "--system", sys_path, "--signal", sig_path,
                        "--x0", "1,0", "--t-end", "1", "--dt", "0.3",
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        rows = (tmp_path / "trajectory_00.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == pytest.approx(
            [0.0, 0.3, 0.6, 0.9, 1.0])
        assert rows[-1].startswith("1,")

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

    @pytest.mark.parametrize("command", ["simulate", "normmin"])
    def test_unbounded_work_is_invalid(self, tmp_path, capsys, example1_files,
                                       command):
        sys_path, sig_path = example1_files
        signal = ["--signal", sig_path] if command == "simulate" else []
        code = run_cli([command, "--system", sys_path, *signal, "--x0", "1,0",
                        "--t-end", "1e12", "--dt", "1e-9", "--out", tmp_path])
        assert code == cli.EXIT_INVALID
        assert "MAX_STEPS" in capsys.readouterr().err
        assert not list(tmp_path.glob("trajectory_*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "normmin"])
    def test_circle_above_max_steps_is_invalid(self, tmp_path, capsys,
                                               monkeypatch, example1_files,
                                               command):
        # patched small, so the refusal is checked with an 11-point circle
        monkeypatch.setattr(cli, "MAX_STEPS", 10)
        sys_path, sig_path = example1_files
        out = tmp_path / "out"
        signal = ["--signal", sig_path] if command == "simulate" else []
        code = run_cli([command, "--system", sys_path, *signal,
                        "--circle", "11", "--t-end", "1", "--dt", "0.5",
                        "--out", out])
        assert code == cli.EXIT_INVALID
        assert "MAX_STEPS" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("command", ["simulate", "normmin", "example"])
    def test_circle_below_one_is_invalid(self, tmp_path, capsys,
                                         example1_files, command, count):
        sys_path, sig_path = example1_files
        out = tmp_path / "out"
        inputs = {"simulate": ["--system", sys_path, "--signal", sig_path],
                  "normmin": ["--system", sys_path],
                  "example": ["1"]}[command]
        code = run_cli([command, *inputs, "--x0", "1,0", "--circle", count,
                        "--t-end", "1", "--dt", "0.5", "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--circle" in err
        assert not list(out.iterdir())


    @pytest.mark.parametrize("matrices, options, message", [
        pytest.param([[[-1, 0], [0, -1]]], ["--x0", "1,0,0"],
                     "has wrong dimension", id="x0-dimension"),
        pytest.param([[[-1]]], ["--circle", "3"],
                     "--circle needs state dimension >= 2", id="circle-n1"),
        pytest.param([[[-1, 0], [0, -1]]], [],
                     "no initial conditions; pass --x0 or --circle",
                     id="no-initial-conditions"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "normmin"])
    def test_bad_initial_conditions_are_invalid(self, tmp_path, capsys,
                                                command, matrices, options,
                                                message):
        sys_path, sig_path = write_specs(tmp_path, matrices, [1.0])
        signal = ["--signal", sig_path] if command == "simulate" else []
        out = tmp_path / "out"
        code = run_cli([command, "--system", sys_path, *signal, *options,
                        "--t-end", "1", "--dt", "0.5", "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not list(out.iterdir())


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
        rows = (out / "orbit.csv").read_text().splitlines()
        assert rows[0] == "t,x1,x2,active" and len(rows) == 202
        assert rows[1].endswith(",1") and rows[-1].endswith(",1")

    def test_singular_average_reports_null(self, tmp_path):
        sys_path = tmp_path / "s.json"
        sys_path.write_text(json.dumps({"subsystems": [
            {"A": [[-2, -2], [1, -2]], "b": [1, 0]},
            {"A": [[2, 2], [0, 2]], "b": [0, 1]}]}))
        sig_path = tmp_path / "g.json"
        sig_path.write_text(json.dumps({"segments": [
            {"index": 1, "duration": 1.0}, {"index": 2, "duration": 1.0}]}))
        code = run_cli(["cycle", "--system", sys_path, "--signal", sig_path,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        cyc = json.loads((tmp_path / "cycle.json").read_text())
        assert cyc["average_equilibrium"] is None
        assert cyc["practical_radius"] is None


    def test_no_contraction_reports_error(self, tmp_path):
        # the signal of TestAnalyze's unstable case, on preset 2
        sys_path, sig_path = write_specs(tmp_path, [], [2.0, 2.0])
        sys_path.write_text(json.dumps(system_to_dict(presets.example_2())))
        out = tmp_path / "out"
        code = run_cli(["cycle", "--system", sys_path, "--signal", sig_path,
                        "--eta", "2", "--out", out])
        assert code == cli.EXIT_UNSTABLE
        report = strict_json(out / "cycle.json")
        assert "not a contraction" in report["error"]
        assert sorted(p.name for p in out.iterdir()) == ["cycle.json"]


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

    def test_negative_x0_after_a_space(self, tmp_path, monkeypatch):
        sys_path = tmp_path / "lin.json"
        sys_path.write_text(json.dumps({"subsystems": [
            {"A": presets.A1.tolist()}, {"A": presets.A2.tolist()}]}))
        outputs = []
        for k, x0 in enumerate((["--x0", "-0.3,0.7"], ["--x0=-0.3,0.7"])):
            (tmp_path / str(k)).mkdir()
            monkeypatch.chdir(tmp_path / str(k))
            code = run_cli(["normmin", "--system", sys_path, *x0,
                            "--t-end", "1", "--dt", "0.01", "--out", "out"])
            assert code == cli.EXIT_OK
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / str(k) / "out").iterdir()})
        assert sorted(outputs[0]) == ["normmin.json", "trajectory_00.csv"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("dt", ["0.3", "3"])
    def test_partial_step_is_invalid(self, tmp_path, capsys, dt):
        # 1 / 0.3 and 1 / 3 steps: no sample would fall on t_end = 1
        sys_path = tmp_path / "lin.json"
        sys_path.write_text(json.dumps({"subsystems": [
            {"A": presets.A1.tolist()}, {"A": presets.A2.tolist()}]}))
        out = tmp_path / "out"
        code = run_cli(["normmin", "--system", sys_path, "--x0", "1,0",
                        "--t-end", "1", "--dt", dt, "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "whole number of steps" in err
        assert not list(out.iterdir())


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_equilibrium_tol_refused(self, tmp_path, capsys, value):
        # the subsystem equilibria (0, -1) and (-3.64, 0.82) disagree, and
        # no tolerance may report a common one
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(["example", "2", "--eta", "0.5",
                        f"--tol=common_equilibrium={value}", "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: common_equilibrium tol must be finite")
        assert err.count("\n") == 1
        assert not list(out.iterdir())

    def test_bad_k_list_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["example", "1", "--k-list", "0", "--t-end", "1",
                        "--dt", "0.5", "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: k_list must be a nonempty list")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("x0", ["nan,0", "0,inf"])
    def test_non_finite_x0_refused_before_output(self, tmp_path, capsys, x0):
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(["example", "1", f"--x0={x0}", "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "not finite" in err and err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("options", [
        ["--eta", "1", "--dt", "nan"],
        ["--eta", "1", "--t-end", "inf"],
        ["--eta", "1e-300", "--t-end", "1"],      # segment crossings
    ])
    def test_bad_simulation_refused_before_output(self, tmp_path, capsys,
                                                  options):
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(["example", "1", *options, "--out", out])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("\n") == 1
        assert not list(out.iterdir())

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
    @pytest.mark.parametrize("argv", [
        ["analyze", "--bogus"],
        ["synthesize", "--resolution", "abc"],
        ["normmin", "--x0"],
        ["bogus"],
    ], ids=["unknown-option", "bad-float", "missing-value", "unknown-command"])
    def test_usage_error_is_invalid(self, capsys, argv):
        assert run_cli(argv) == cli.EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["analyze", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize("command, options", [
        ("simulate", ["--tol", "common_equilibrium=1e-6"]),
        ("cycle", ["--tol", "common_equilibrium=1e-6"]),
        ("normmin", ["--tol", "common_equilibrium=1e-6"]),
        ("example", ["--system", "s.json"]),
    ], ids=["simulate-tol", "cycle-tol", "normmin-tol", "example-system"])
    def test_option_the_run_never_reads_is_usage_error(
            self, tmp_path, capsys, example1_files, command, options):
        # each call is valid without the option
        sys_path, sig_path = example1_files
        run = ["--x0", "1,0", "--t-end", "1", "--dt", "0.5"]
        inputs = {"simulate": ["--system", sys_path, "--signal", sig_path, *run],
                  "cycle": ["--system", sys_path, "--signal", sig_path],
                  "normmin": ["--system", sys_path, *run],
                  "example": ["1", *run]}[command]
        out = tmp_path / "out"
        code = run_cli([command, *inputs, *options, "--out", out])
        assert code == cli.EXIT_INVALID
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [
        ("analyze", "refine_tol"),
        ("synthesize", "common_equilibrium"),
        ("example", "refine_tol"),
    ])
    def test_tolerance_the_run_never_reads_is_refused(
            self, tmp_path, capsys, example1_files, command, name):
        # each call is valid without the --tol
        sys_path, sig_path = example1_files
        inputs = {"analyze": ["--system", sys_path, "--signal", sig_path],
                  "synthesize": ["--system", sys_path, "--resolution", "0.1",
                                 "--grid-points", "5"],
                  "example": ["1", "--t-end", "1", "--dt", "0.5"]}[command]
        out = tmp_path / "out"
        code = run_cli([command, *inputs, "--tol", f"{name}=0.01",
                        "--out", out])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown --tol name {name!r}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_module_version(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "swstab", "--version"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout == f"{cli.__version__}\n"

    def test_tol_parsing(self):
        analyze = cli._COMMANDS["analyze"][3]
        synthesize = cli._COMMANDS["synthesize"][3]
        assert cli._parse_tols(["common_equilibrium=1e-6"], analyze) == {
            "common_equilibrium": 1e-6}
        assert cli._parse_tols(["refine_tol=0"], synthesize) == {
            "refine_tol": 0.0}
        with pytest.raises(ValueError):
            cli._parse_tols(["oops"], analyze)
        with pytest.raises(ValueError, match="known: common_equilibrium$"):
            cli._parse_tols(["refine_tol=1e-6"], analyze)
        with pytest.raises(ValueError, match="known: refine_tol$"):
            cli._parse_tols(["common_equilibrium=1e-6"], synthesize)

    @pytest.mark.parametrize("argv, want", [
        (["--x0", "-1,2"], ["--x0=-1,2"]),
        (["--x0", "1", "--x0", "-2"], ["--x0=1", "--x0=-2"]),
        (["--x0=-1", "--circle", "3"], ["--x0=-1", "--circle", "3"]),
        (["--x0", "--circle", "3"], ["--x0", "--circle", "3"]),
        (["--x0"], ["--x0"]),
    ])
    def test_x0_value_joined(self, argv, want):
        assert cli._join_x0(argv) == want

    def test_k_list_parsing(self):
        # parsing only: lemma4_bound_holds refuses a k below 1
        assert cli._parse_k_list("1,2,4") == [1, 2, 4]
        assert cli._parse_k_list("0,2") == [0, 2]
        assert cli._parse_k_list(",") == []
        with pytest.raises(ValueError):
            cli._parse_k_list("1,a")
        assert cli.RunConfig("analyze").k_list == list(cli.DEFAULT_K_LIST)


class TestParserReuse:
    ARGV = [
        ["example", "1", "--x0", "1,0", "--x0", "-0.3,0.7",
         "--tol", "common_equilibrium=1e-6", "--tol", "common_equilibrium=0",
         "--t-end", "1", "--dt", "0.01", "--out", "out"],
        ["normmin", "--system", "lin.json", "--circle", "2", "--t-end", "1",
         "--dt", "0.01", "--out", "out"],
    ]

    def run_in(self, monkeypatch, path, argv):
        path.mkdir()
        (path / "lin.json").write_text(json.dumps({"subsystems": [
            {"A": presets.A1.tolist()}, {"A": presets.A2.tolist()}]}))
        monkeypatch.chdir(path)
        assert run_cli(argv) == cli.EXIT_OK
        return {p.name: p.read_bytes() for p in (path / "out").iterdir()}

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_appended_options_do_not_leak(self, tmp_path, monkeypatch):
        # one process, the two calls in a row, against each on a new parser
        together = [self.run_in(monkeypatch, tmp_path / f"together{k}", argv)
                    for k, argv in enumerate(self.ARGV)]
        alone = []
        for k, argv in enumerate(self.ARGV):
            cli.build_parser.cache_clear()
            alone.append(self.run_in(monkeypatch, tmp_path / f"alone{k}", argv))
        assert together == alone
        assert sorted(alone[1]) == ["normmin.json", "trajectory_00.csv",
                                    "trajectory_01.csv"]


class TestBlockRows:
    """No output depends on simulate.BLOCK_ROWS, the batch size of every
    stacked loop: the same runs at 1, 7 and 256 rows write the same
    bytes."""

    @staticmethod
    def write_inputs(path):
        """Two design systems (preset 1 and a seeded random 3x3, m = 3
        system with unstable subsystems and a stable mean), an unstable
        one for the diverging runs, and a signal for it."""
        path.mkdir()
        (path / "design_0.json").write_text(
            json.dumps(system_to_dict(presets.example_1())))
        rng = np.random.default_rng(4)
        while True:
            As, bs = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3))
            if (np.linalg.eigvals(As).real.max(axis=1).min() > 0.0
                    and np.linalg.eigvals(As.mean(axis=0)).real.max() < -0.1):
                break
        (path / "design_1.json").write_text(json.dumps({"subsystems": [
            {"A": A.tolist(), "b": b.tolist()} for A, b in zip(As, bs)]}))
        (path / "unstable.json").write_text(json.dumps({"subsystems": [
            {"A": [[3.0, 0.0], [0.0, 3.0]]}, {"A": [[3.0, 1.0], [0.0, 3.0]]}]}))
        (path / "unstable_signal.json").write_text(json.dumps({"segments": [
            {"index": 1, "duration": 0.3}, {"index": 2, "duration": 0.2}]}))

    @staticmethod
    def outputs(inputs, out):
        """Exit code and the bytes of every file written, for each run."""
        got = {}

        def run(name, argv):
            code = run_cli([*argv, "--out", out / name])
            got[name] = code, {p.name: p.read_bytes()
                               for p in sorted((out / name).iterdir())}

        for k in range(2):
            system = inputs / f"design_{k}.json"
            run(f"synthesize_{k}", ["synthesize", "--system", system,
                                    "--resolution", "0.02",
                                    "--grid-points", "300"])
            comb = json.loads((out / f"synthesize_{k}" /
                               "combination.json").read_text())
            search = json.loads((out / f"synthesize_{k}" /
                                 "eta_search.json").read_text())
            signal = out / f"signal_{k}.json"
            signal.write_text(json.dumps({"segments": [
                {"index": i + 1, "duration": a * comb["period"]}
                for i, a in enumerate(comb["alpha"]) if a > 0.0]}))
            for cmd in ("analyze", "cycle"):
                run(f"{cmd}_{k}", [cmd, "--system", system, "--signal",
                                   signal, "--eta",
                                   repr(search["eta_star"] / 2)])
        run("normmin", ["normmin", "--system", inputs / "design_0.json",
                        "--x0", "1,0", "--t-end", "30", "--dt", "0.1"])
        run("simulate_diverging", [
            "simulate", "--system", inputs / "unstable.json", "--signal",
            inputs / "unstable_signal.json", "--x0", "1,0", "--t-end", "30",
            "--dt", "0.05"])
        # the norm passes the guard at step 93 of 95, in a last block that
        # is partial at 7 and at 256 rows
        run("normmin_diverging", [
            "normmin", "--system", inputs / "unstable.json", "--x0", "1,0",
            "--t-end", "9.5", "--dt", "0.1"])
        return got

    def test_outputs_do_not_depend_on_block_rows(self, tmp_path,
                                                 monkeypatch):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name.startswith("swstab.") and hasattr(mod, "BLOCK_ROWS")]
        assert {"swstab.simulate", "swstab.synthesis"} <= {
            mod.__name__ for mod in modules}
        self.write_inputs(tmp_path / "in")
        runs = {}
        for rows in (1, 7, 256):
            for mod in modules:
                monkeypatch.setattr(mod, "BLOCK_ROWS", rows)
            # the same output paths each time: the reports name them
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            runs[rows] = self.outputs(tmp_path / "in", tmp_path / "out")
        assert runs[1] == runs[256]
        assert runs[7] == runs[256]
        got = runs[256]
        assert {name: code for name, (code, _) in got.items()} == {
            "synthesize_0": cli.EXIT_OK, "synthesize_1": cli.EXIT_OK,
            "analyze_0": cli.EXIT_OK, "analyze_1": cli.EXIT_OK,
            "cycle_0": cli.EXIT_OK, "cycle_1": cli.EXIT_OK,
            "normmin": cli.EXIT_OK, "simulate_diverging": cli.EXIT_UNSTABLE,
            "normmin_diverging": cli.EXIT_UNSTABLE}
        # the eta grid spans two blocks of 256, and each search bisects
        for k in range(2):
            search = json.loads(got[f"synthesize_{k}"][1]["eta_search.json"])
            assert len(search["grid"]) == 300
            assert search["eta_star"] < search["grid"][-1]["eta"]
        assert got["normmin"][1]["trajectory_00.csv"].count(b"\n") == 302


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize would add about 0.35 s to every command-line start
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, swstab.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
