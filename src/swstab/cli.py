"""Command-line front-end: parse system/signal specs, run analyses, write
JSON reports and CSV trajectories.

Exit codes: 0 success; 1 parse/validation error, usage errors included;
2 numerical failure; 3 instability or divergence detected (reports are
still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, presets
from .linalg import LinalgError
from .model import (SwitchedSystem, common_equilibrium, EquilibriumError,
                    load_system, system_to_dict)
from .signals import (NormMinPolicy, PeriodicSignal, activation_fractions,
                      example_signal, load_signal, scale, signal_to_dict)
from .stability import DEFAULT_K_LIST, is_ici_stable, lemma4_bound_holds
from .simulate import (MAX_STEPS, DivergenceError, NoAttractingCycleError,
                       DegenerateCycleError, check_simulation, limit_cycle,
                       simulate, simulate_norm_min, write_table)
from .synthesis import (DEFAULT_GRID_POINTS, DEFAULT_RESOLUTION,
                        check_eta_search, default_resolution,
                        find_stable_combination, max_stable_eta)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_UNSTABLE = 3


@dataclass
class RunConfig:
    """Fully resolved invocation, embedded in every report.

    The field defaults are the command-line defaults.
    """

    command: str
    system_path: Optional[str] = None
    signal_path: Optional[str] = None
    example: Optional[int] = None
    eta: float = 1.0
    t_end: float = 60.0
    sample_dt: float = 0.05
    output_dir: str = "."
    circle: Optional[int] = None
    x0: list = field(default_factory=list)
    resolution: float = DEFAULT_RESOLUTION
    eta_max: Optional[float] = None
    grid_points: int = DEFAULT_GRID_POINTS
    k_list: list = field(default_factory=lambda: list(DEFAULT_K_LIST))
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def _strict(value):
    """value with every non-finite float replaced by None, JSON null."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, payload: dict) -> None:
    # RFC 8259 has no inf or nan; allow_nan=False makes a miss an error
    path.write_text(json.dumps(_strict(payload), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _report(config: RunConfig, body: dict) -> dict:
    out = dict(body)
    out["version"] = __version__
    out["config"] = config.to_dict()
    return out


def _parse_tols(items, names) -> dict:
    # the function that reads a tolerance checks its bound
    tols = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in names:
            raise ValueError(f"unknown --tol name {name!r}; "
                             f"known: {', '.join(names)}")
        tols[name] = float(value)
    return tols


def _parse_k_list(text: str) -> list[int]:
    # lemma4_bound_holds refuses an empty list or a k below 1
    return [int(part) for part in text.split(",") if part.strip()]


def _initial_conditions(config: RunConfig,
                        sys_: SwitchedSystem) -> list[np.ndarray]:
    n = sys_.n
    points = [sys_.state(x) for x in config.x0]
    if config.circle is not None:
        if config.circle < 1:
            raise ValueError(f"--circle must be at least 1, got {config.circle}")
        if n < 2:
            raise ValueError("--circle needs state dimension >= 2")
        # each initial condition costs at least one step
        if config.circle > MAX_STEPS:
            raise ValueError(f"--circle {config.circle} exceeds MAX_STEPS = "
                             f"{MAX_STEPS} initial conditions")
        for j in range(config.circle):
            theta = 2.0 * math.pi * j / config.circle
            p = np.zeros(n)
            p[0], p[1] = math.cos(theta), math.sin(theta)
            points.append(p)
    if not points:
        raise ValueError("no initial conditions; pass --x0 or --circle")
    return points


def _load_inputs(config: RunConfig) -> tuple[SwitchedSystem, Optional[PeriodicSignal]]:
    if config.example is not None:
        sys_ = presets.preset(config.example)
        sig = example_signal(config.eta)
        return sys_, sig
    if config.system_path is None:
        raise ValueError("--system is required")
    sys_ = load_system(config.system_path)
    sig = None
    if config.signal_path is not None:
        sig = scale(load_signal(config.signal_path), config.eta)
    return sys_, sig


def _run_trajectories(config: RunConfig, out: Path, sys_: SwitchedSystem,
                      propagate, report_name: str) -> int:
    """Propagate every initial condition, keeping the partial trajectory of
    a divergent one, then write the CSVs and the summary report."""
    trajectories, diverged = [], []
    for p in _initial_conditions(config, sys_):
        try:
            trajectories.append(propagate(p))
        except DivergenceError as exc:
            trajectories.append(exc.trajectory)
            diverged.append({"x0": p.tolist(), "escape_time": exc.time})
    names = []
    for k, traj in enumerate(trajectories):
        name = f"trajectory_{k:02d}.csv"
        with open(out / name, "w") as fh:
            traj.write_csv(fh)
        names.append(name)
    body = {"trajectories": names, "diverged": diverged}
    _write_json(out / report_name, _report(config, body))
    return EXIT_UNSTABLE if diverged else EXIT_OK


# -- subcommand bodies --------------------------------------------------------
# each takes the inputs that run loaded: the SwitchedSystem, and the
# PeriodicSignal when the command offers --signal or is example, else None

def _cmd_analyze(config: RunConfig, out: Path, sys_, sig) -> int:
    report = is_ici_stable(sys_, sig, eta=config.eta)
    body = report.to_dict()
    w = activation_fractions(sig, sys_.m)
    body["activation_fractions"] = w.alpha.tolist()
    body["lemma4_bound_holds"] = lemma4_bound_holds(
        sys_, w, 1.0, k_list=config.k_list)
    # a tolerance not given is not passed: the library default applies
    given = config.tolerances
    tols = ({"tol": given["common_equilibrium"]}
            if "common_equilibrium" in given else {})
    try:
        eq = common_equilibrium(sys_, **tols)
        body["common_equilibrium"] = None if eq is None else eq.tolist()
    except EquilibriumError:
        body["common_equilibrium"] = None
    _write_json(out / "analysis.json", _report(config, body))
    return EXIT_OK if report.is_stable else EXIT_UNSTABLE


def _cmd_synthesize(config: RunConfig, out: Path, sys_, sig) -> int:
    if config.resolution is None:
        # no --resolution: the default, coarsened until the grid fits
        config.resolution = default_resolution(sys_.m)
    comb = find_stable_combination(
        [sub.A for sub in sys_.subsystems], resolution=config.resolution)
    _write_json(out / "combination.json", _report(config, comb.to_dict()))
    if not comb.found:
        return EXIT_UNSTABLE
    # synthesize reads refine_tol only; one not given is not passed
    search = max_stable_eta(
        sys_, comb.weights, eta_max=config.eta_max,
        grid_points=config.grid_points, **config.tolerances)
    _write_json(out / "eta_search.json", _report(config, search.to_dict()))
    with open(out / "eta_grid.csv", "w") as fh:
        write_table(fh, ["eta", "spectral_radius"], search.grid)
    return EXIT_OK


def _cmd_simulate(config: RunConfig, out: Path, sys_, sig) -> int:
    return _run_trajectories(
        config, out, sys_,
        lambda p: simulate(sys_, sig, p, config.t_end, config.sample_dt),
        "simulate.json")


def _cmd_cycle(config: RunConfig, out: Path, sys_, sig) -> int:
    try:
        cyc = limit_cycle(sys_, sig)
    except (NoAttractingCycleError, DegenerateCycleError) as exc:
        _write_json(out / "cycle.json",
                    _report(config, {"error": str(exc)}))
        return EXIT_UNSTABLE
    _write_json(out / "cycle.json", _report(config, cyc.to_dict()))
    with open(out / "orbit.csv", "w") as fh:
        cyc.trajectory.write_csv(fh)
    return EXIT_OK


def _cmd_normmin(config: RunConfig, out: Path, sys_, sig) -> int:
    policy = NormMinPolicy(config.sample_dt)
    return _run_trajectories(
        config, out, sys_,
        lambda p: simulate_norm_min(sys_, p, config.t_end, policy),
        "normmin.json")


def _cmd_example(config: RunConfig, out: Path, sys_, sig) -> int:
    if config.circle is None and not config.x0:
        config.circle = 8
    # refused before any output
    _initial_conditions(config, sys_)
    check_simulation(config.t_end, config.sample_dt, sig)
    steps = [_cmd_analyze, _cmd_simulate]
    if config.example == 2:
        steps.append(_cmd_cycle)
    code = max(step(config, out, sys_, sig) for step in steps)
    # the inputs go last, so a value the analyze step refuses writes nothing
    _write_json(out / "system.json", system_to_dict(sys_))
    _write_json(out / "signal.json", signal_to_dict(sig))
    return code


# -- the command table --------------------------------------------------------

# add_argument arguments of every option, each dest a RunConfig field
_OPTIONS = {
    "example": dict(type=int, choices=(1, 2)),
    "--system": dict(dest="system_path", metavar="SYSTEM",
                     help="system JSON file"),
    "--signal": dict(dest="signal_path", metavar="SIGNAL",
                     help="signal JSON file"),
    "--eta": dict(type=float, help="time-scale applied to the signal"),
    "--out": dict(dest="output_dir", metavar="OUT", help="output directory"),
    "--tol": dict(action="append", dest="tolerances", metavar="NAME=VALUE",
                  help="tolerance override (repeatable)"),
    "--t-end": dict(type=float),
    "--dt": dict(type=float, dest="sample_dt", metavar="DT",
                 help="sample step (policy step for normmin)"),
    "--x0": dict(action="append", metavar="CSV",
                 help="initial condition, e.g. 1,0 or --x0=-0.3,0.7 "
                      "(repeatable)"),
    "--circle": dict(type=int, help="K initial points on the unit circle"),
    "--resolution": dict(type=float),
    "--eta-max": dict(type=float),
    "--grid-points": dict(type=int),
    "--k-list": dict(help="comma-separated k grid for the dwell bound"),
}

# command -> (body, help, the options its run reads, in help order, the
# --tol names its run reads)
_COMMANDS = {
    "analyze": (_cmd_analyze, "stability report for system + signal",
                ("--system", "--signal", "--eta", "--out", "--tol",
                 "--k-list"), ("common_equilibrium",)),
    "synthesize": (_cmd_synthesize,
                   "find a stable combination and the max dwell scale",
                   ("--system", "--out", "--tol", "--resolution", "--eta-max",
                    "--grid-points"), ("refine_tol",)),
    "simulate": (_cmd_simulate, "exact trajectories under a signal",
                 ("--system", "--signal", "--eta", "--out", "--t-end", "--dt",
                  "--x0", "--circle"), ()),
    "cycle": (_cmd_cycle, "limit cycle of the one-period map",
              ("--system", "--signal", "--eta", "--out"), ()),
    "normmin": (_cmd_normmin, "norm-minimising closed-loop simulation",
                ("--system", "--out", "--t-end", "--dt", "--x0", "--circle"),
                ()),
    "example": (_cmd_example, "write a bundled example and analyse it",
                ("example", "--out", "--tol", "--t-end", "--dt", "--x0",
                 "--circle", "--eta", "--k-list"), ("common_equilibrium",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from _COMMANDS.

    Reuse is safe: every option defaults to SUPPRESS, so each parse starts
    from an empty namespace and an appended option never carries over.
    Options left out stay off the namespace, so RunConfig supplies every
    default.
    """
    parser = argparse.ArgumentParser(
        prog="swstab",
        description="Stabilising switching signals for switched affine systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text,
                           argument_default=argparse.SUPPRESS)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    given = dict(vars(args))
    if given["command"] == "synthesize":
        given.setdefault("resolution", None)    # resolved from m on the run
    # text to values; an option left out keeps its RunConfig default
    if "x0" in given:
        given["x0"] = [[float(v) for v in item.split(",")]
                       for item in given["x0"]]
    if "k_list" in given:
        given["k_list"] = _parse_k_list(given["k_list"])
    if "tolerances" in given:
        given["tolerances"] = _parse_tols(given["tolerances"],
                                          _COMMANDS[given["command"]][3])
    config = RunConfig(**given)
    # refused here, not after synthesize's simplex search has written output
    if config.command == "synthesize":
        check_eta_search(config.eta_max, config.grid_points,
                         **config.tolerances)
    return config


def run(config: RunConfig) -> int:
    body, _, options, _ = _COMMANDS[config.command]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sys_, sig = _load_inputs(config)
    if sig is None and "--signal" in options:
        raise ValueError(f"{config.command} needs a switching signal (--signal)")
    return body(config, out, sys_, sig)


def _join_x0(argv) -> list[str]:
    """Rewrite each "--x0 VALUE" pair as "--x0=VALUE", so that a value
    starting with "-" is not taken for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--x0" and not arg.startswith("--"):
            out[-1] = f"--x0={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _join_x0(_sys.argv[1:] if argv is None else argv))
        return run(config_from_args(args))
    except SystemExit as exc:       # argparse exits 2 on a usage error
        if exc.code == 0:           # --help, --version
            raise
        return EXIT_INVALID
    except (ValueError, KeyError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except LinalgError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
