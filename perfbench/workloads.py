"""Seeded inputs, operations and independent correctness oracles.

Each workload generates its input files from a seed, runs one operation as
one or more ``swstab.cli.main(argv)`` calls, and checks the files that the
operation wrote against a recomputation that uses numpy/scipy only.  This
module never imports swstab: the program under test is handed in as the
``main`` callable.

Negative initial conditions are passed as ``--x0=-0.3,0.7``; argparse takes
``--x0 -0.3,0.7`` (with a space) for an unknown option.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import scipy.linalg

EXIT_OK = 0
EXIT_UNSTABLE = 3

# The paper's Example 1 (the bundled preset 1): two unstable affine
# subsystems sharing the equilibrium (0, -1).
EXAMPLE1_A = (np.array([[-2.1, -2.0], [0.5, 1.0]]),
              np.array([[1.0, 2.0], [0.1, -2.0]]))
EXAMPLE1_B = (np.array([-2.0, 1.0]), np.array([2.0, -2.0]))

OUT = "out"          # per-operation output directory, relative to the cwd


# -- independent numerics -----------------------------------------------------

def period_map(As, bs, segments):
    """Exact one-period affine map (M, v) of dx/dt = A_i x + b_i.

    Van Loan's augmented exponential expm(tau [[A, b], [0, 0]]) per segment;
    ``segments`` is a list of (1-based index, duration), earliest first.
    """
    n = As[0].shape[0]
    P = np.eye(n + 1)
    for idx, tau in segments:
        G = np.zeros((n + 1, n + 1))
        G[:n, :n] = As[idx - 1]
        G[:n, n] = bs[idx - 1]
        P = scipy.linalg.expm(tau * G) @ P
    return P[:n, :n], P[:n, n]


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def rel_close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.linalg.norm(a - b) <= tol * max(np.linalg.norm(b), 1e-300))


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload))


def clear_outputs() -> None:
    """Remove the previous operation's files so stale outputs cannot pass."""
    out = Path(OUT)
    out.mkdir(exist_ok=True)
    for f in out.iterdir():
        f.unlink()


def output_bytes() -> dict:
    sizes = {"csv": 0, "json": 0}
    for f in Path(OUT).iterdir():
        ext = f.suffix.lstrip(".")
        if ext in sizes:
            sizes[ext] += f.stat().st_size
    return sizes


def _x0_arg(x) -> str:
    return "--x0=" + ",".join(repr(float(v)) for v in x)


def _timed(main, argv):
    t0 = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - t0


# -- workloads ----------------------------------------------------------------

class Workload:
    """One kind of operation over a pool of seeded inputs.

    ``pool`` inputs are cycled by the timed phase; the traced run cycles
    the first ``trace_pool`` of them so its work counters are exact.
    """

    name = ""
    pool = 64
    trace_pool = 16
    warmup = 3

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, main, i: int):
        """Run operation ``i``; return (latency_s, state) for ``check``."""
        raise NotImplementedError

    def check(self, i: int, state) -> list[str]:
        """Independent checks of operation ``i``; returns the failures."""
        raise NotImplementedError

    def abscissa_evals(self, state) -> int:
        """Spectral-abscissa evaluations the operation reported."""
        return 0


class Design(Workload):
    """synthesize -> analyze -> cycle on seeded random 3x3, m=3 systems."""

    name = "design"
    pool = 128
    trace_pool = 8
    warmup = 1
    n = m = 3

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        Path("in").mkdir(exist_ok=True)
        accepted = []
        while len(accepted) < self.pool:
            As = rng.normal(size=(1024, self.m, self.n, self.n))
            unstable = np.linalg.eigvals(As).real.max(axis=2).min(axis=1) > 0.0
            mean_ok = np.linalg.eigvals(As.mean(axis=1)).real.max(axis=1) < -0.1
            accepted.extend(As[unstable & mean_ok])
        self.systems = []
        for k, As in enumerate(accepted[:self.pool]):
            bs = rng.normal(size=(self.m, self.n))
            self.systems.append((As, bs))
            write_json(f"in/system_{k:03d}.json", {
                "n": self.n,
                "subsystems": [{"A": A.tolist(), "b": b.tolist()}
                               for A, b in zip(As, bs)]})

    def run(self, main, i):
        system = f"in/system_{i:03d}.json"
        code, t = _timed(main, ["synthesize", "--system", system,
                                "--resolution", "0.01", "--out", OUT])
        if code != EXIT_OK:
            return t, {"synthesize": code}
        comb = json.loads(Path(OUT, "combination.json").read_text())
        search = json.loads(Path(OUT, "eta_search.json").read_text())
        eta = search["eta_star"] / 2
        write_json(Path(OUT, "signal.json"), {"segments": [
            {"index": k + 1, "duration": a * comb["period"]}
            for k, a in enumerate(comb["alpha"]) if a > 0.0]})
        state = {"synthesize": code, "comb": comb, "eta_star": search["eta_star"],
                 "eta": eta}
        run_args = ["--system", system, "--signal", f"{OUT}/signal.json",
                    "--eta", repr(eta), "--out", OUT]
        for cmd in ("analyze", "cycle"):
            state[cmd], dt = _timed(main, [cmd] + run_args)
            t += dt
        return t, state

    def abscissa_evals(self, state):
        return state["comb"]["evaluations"] if state and "comb" in state else 0

    def check(self, i, state):
        if state["synthesize"] != EXIT_OK:
            return [f"synthesize exited {state['synthesize']}"]
        As, bs = self.systems[i]
        comb, errors = state["comb"], []
        alpha = np.asarray(comb["alpha"])
        if not (np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-12):
            errors.append(f"weights {alpha} are not on the simplex")
        absc = np.linalg.eigvals(np.tensordot(alpha, As, axes=1)).real.max()
        if not (comb["found"] and abs(comb["abscissa"] - absc) <= 1e-9):
            errors.append(f"abscissa {comb['abscissa']} != {absc}")
        segs = [(k + 1, a * comb["period"]) for k, a in enumerate(alpha)
                if a > 0.0]

        def scaled(eta):
            return [(idx, eta * d) for idx, d in segs]

        eta_star = state["eta_star"]
        if not (eta_star > 0.0
                and spectral_radius(period_map(As, bs, scaled(eta_star))[0]) < 1.0):
            errors.append(f"rho at eta* = {eta_star} is not < 1")

        eta = state["eta"]
        M, v = period_map(As, bs, scaled(eta))
        rho = spectral_radius(M)
        stable = rho < 1.0
        rep = json.loads(Path(OUT, "analysis.json").read_text())
        det = np.exp(sum(tau * np.trace(As[idx - 1]) for idx, tau in scaled(eta)))
        if state["analyze"] != (EXIT_OK if stable else EXIT_UNSTABLE):
            errors.append(f"analyze exited {state['analyze']} with rho {rho}")
        if not (rel_close(rep["spectral_radius"], rho, 1e-9)
                and rep["is_stable"] == stable):
            errors.append(f"analysis rho {rep['spectral_radius']} != {rho}")
        if not (rel_close(rep["determinant"], rep["det_oracle"], 1e-9)
                and rel_close(rep["det_oracle"], det, 1e-9)):
            errors.append(f"determinant {rep['determinant']}, det_oracle "
                          f"{rep['det_oracle']}, closed form {det}")

        if state["cycle"] == EXIT_UNSTABLE and not stable:
            return errors
        if state["cycle"] != EXIT_OK:
            return errors + [f"cycle exited {state['cycle']} with rho {rho}"]
        cyc = json.loads(Path(OUT, "cycle.json").read_text())
        x_star = np.asarray(cyc["fixed_point"])
        residual = np.linalg.norm((np.eye(self.n) - M) @ x_star - v)
        if not residual <= 1e-9:
            errors.append(f"fixed-point residual {residual:.3e}")
        return errors


class PeriodicFine(Workload):
    """simulate preset 1 under the square wave at eta = 1e-3."""

    name = "periodic-fine"
    eta, t_end, dt = 1e-3, 20.0, 0.05

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        Path("in").mkdir(exist_ok=True)
        write_json("in/system.json", {"n": 2, "subsystems": [
            {"A": A.tolist(), "b": b.tolist()}
            for A, b in zip(EXAMPLE1_A, EXAMPLE1_B)]})
        write_json("in/signal.json", {"segments": [
            {"index": 1, "duration": 2.0}, {"index": 2, "duration": 2.0}]})
        self.x0 = rng.uniform(-2.0, 2.0, size=(self.pool, 2))
        # the CLI scales each duration by eta, as here
        M, v = period_map(EXAMPLE1_A, EXAMPLE1_B,
                          [(1, self.eta * 2.0), (2, self.eta * 2.0)])
        periods = round(self.t_end / (self.eta * 4.0))
        aug = np.eye(3)
        aug[:2, :2], aug[:2, 2] = M, v
        self.t_end_map = np.linalg.matrix_power(aug, periods)

    def run(self, main, i):
        code, t = _timed(main, [
            "simulate", "--system", "in/system.json", "--signal",
            "in/signal.json", "--eta", repr(self.eta), _x0_arg(self.x0[i]),
            "--t-end", repr(self.t_end), "--dt", repr(self.dt), "--out", OUT])
        return t, code

    def check(self, i, code):
        if code != EXIT_OK:
            return [f"simulate exited {code}"]
        rows = read_csv(Path(OUT, "trajectory_00.csv"))
        expected_rows = round(self.t_end / self.dt) + 1
        if rows.shape != (expected_rows, 4):
            return [f"trajectory has shape {rows.shape}, "
                    f"expected ({expected_rows}, 4)"]
        x_end = (self.t_end_map @ np.append(self.x0[i], 1.0))[:2]
        if not (abs(rows[-1, 0] - self.t_end) <= 1e-9
                and rel_close(rows[-1, 1:3], x_end, 1e-9)):
            return [f"final row {rows[-1].tolist()} != {x_end.tolist()}"]
        return []


class NormMinDense(Workload):
    """normmin on the linear part of preset 1 with a 1e-3 step."""

    name = "normmin-dense"
    t_end, dt = 10.0, 1e-3

    def setup(self, seed):
        rng = np.random.default_rng([seed, 3])
        Path("in").mkdir(exist_ok=True)
        write_json("in/linear.json", {"n": 2, "subsystems": [
            {"A": A.tolist()} for A in EXAMPLE1_A]})
        theta = rng.uniform(0.0, 2.0 * np.pi, size=self.pool)
        radius = rng.uniform(0.5, 2.0, size=self.pool)
        self.x0 = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], 1)
        self.As = np.stack(EXAMPLE1_A)
        self.step = np.stack([scipy.linalg.expm(self.dt * A) for A in EXAMPLE1_A])

    def run(self, main, i):
        code, t = _timed(main, [
            "normmin", "--system", "in/linear.json", _x0_arg(self.x0[i]),
            "--t-end", repr(self.t_end), "--dt", repr(self.dt), "--out", OUT])
        return t, code

    def check(self, i, code):
        if code != EXIT_OK:
            return [f"normmin exited {code}"]
        rows = read_csv(Path(OUT, "trajectory_00.csv"))
        expected_rows = round(self.t_end / self.dt) + 1
        if rows.shape != (expected_rows, 4):
            return [f"trajectory has shape {rows.shape}, "
                    f"expected ({expected_rows}, 4)"]
        x, active = rows[:, 1:3], rows[:, 3].astype(int) - 1
        errors = []
        if not rel_close(x[0], self.x0[i], 1e-11):
            errors.append(f"first state {x[0]} != x0 {self.x0[i]}")
        # selection: argmin_i x^T A_i x at every recorded state; the CSV keeps
        # 12 significant digits, so a gap below that rounding is a tie
        drift = np.einsum("kn,mni,ki->km", x, self.As, x)
        chosen = drift[np.arange(len(x)), active]
        gap = chosen - drift.min(axis=1)
        tie = 1e-10 * np.einsum("kn,kn->k", x, x) * np.abs(self.As).sum()
        bad = np.flatnonzero(gap > tie)
        if bad.size:
            errors.append(f"{bad.size} rows select a non-minimising subsystem, "
                          f"first at t = {rows[bad[0], 0]}")
        # dynamics: each step is the exact flow of the selected subsystem
        pred = np.einsum("kij,kj->ki", self.step[active[:-1]], x[:-1])
        err = np.linalg.norm(x[1:] - pred, axis=1)
        if not np.all(err <= 1e-9 * np.linalg.norm(x[:-1], axis=1)):
            errors.append(f"step mismatch up to {err.max():.3e}")
        return errors


WORKLOADS = {w.name: w for w in (Design, PeriodicFine, NormMinDense)}

