"""Constructive stabilisation: stable convex combinations and the largest
dwell-time scale at which the constructed periodic signal still stabilises."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .model import SwitchedSystem, Weights, average_system
from .signals import from_weights
from .stability import monodromy


@dataclass(frozen=True)
class CombinationResult:
    """Best convex combination found on the simplex."""

    weights: Weights
    abscissa: float        # max Re eigenvalue of sum_i alpha_i A_i
    found: bool            # abscissa < 0
    evaluations: int
    # Nelder-Mead outcome, {"status": "converged" | "maxiter" | "cycle",
    # "iterations": k}; None for a single matrix, which is not refined
    refinement: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "alpha": self.weights.alpha.tolist(),
            "period": self.weights.period,
            "abscissa": self.abscissa,
            "found": self.found,
            "evaluations": self.evaluations,
            "refinement": self.refinement,
        }


@dataclass(frozen=True)
class EtaSearchResult:
    """Largest verified-stable dwell scale, with the scanned grid."""

    eta_star: float
    grid: tuple[tuple[float, float], ...]   # (eta, spectral_radius)
    stable_prefix: bool

    def to_dict(self) -> dict:
        return {
            "eta_star": self.eta_star,
            "stable_prefix": self.stable_prefix,
            "grid": [{"eta": e, "spectral_radius": r} for e, r in self.grid],
        }


# Grid points whose abscissae one stacked eigenvalue call computes.
_SCAN_BLOCK = 256
# Most simplex-grid entries (points x weights) a scan may hold: 100 MB.
MAX_GRID_ENTRIES = 12_500_000
# Bisection tolerance on eta of max_stable_eta.
DEFAULT_REFINE_TOL = 1e-3
# Nelder-Mead stopping rule: simplex spread in x and in value, iterations.
_XATOL, _FATOL, _MAXITER = 1e-10, 1e-12, 2000
# An iteration's trial points are c * centroid - d * worst vertex, in the
# rows: reflection, expansion, outside and inside contraction
# (coefficients rho = 1, chi = 2, psi = 1/2).
_TRIAL_C = np.array([[2.0], [3.0], [1.5], [0.5]])
_TRIAL_D = np.array([[1.0], [2.0], [0.5], [-0.5]])


def _grid_entries(m: int, steps: int) -> int:
    """Weights (points x m) in the simplex grid of the given divisions."""
    return math.comb(steps + m - 1, m - 1) * m


def _fitting_resolution(m: int, resolution: float) -> float:
    """resolution, or else the finest coarser 1/steps whose grid fits."""
    steps = round(1.0 / resolution)
    if _grid_entries(m, steps) <= MAX_GRID_ENTRIES:
        return resolution
    while steps > 1 and _grid_entries(m, steps) > MAX_GRID_ENTRIES:
        steps -= 1
    return 1.0 / steps


def _grid_steps(m: int, resolution: float) -> int:
    """Grid divisions per unit weight; refuses a grid too large to scan."""
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    # clipping keeps round() finite; for m >= 2 a clipped grid is refused
    steps = max(1, round(min(1.0 / resolution, MAX_GRID_ENTRIES)))
    if _grid_entries(m, steps) > MAX_GRID_ENTRIES:
        raise ValueError(f"resolution {resolution} needs a simplex grid of "
                         f"more than {MAX_GRID_ENTRIES} weights for {m} "
                         "matrices")
    return steps


def _simplex_grid(m: int, steps: int) -> np.ndarray:
    """All weight vectors with entries k/steps summing to 1, as a (G, m) array.

    Rows follow itertools.combinations_with_replacement(range(m), steps):
    (steps, 0, ..., 0)/steps first, (0, ..., 0, steps)/steps last.
    """
    # column j holds steps - (c_0 + ... + c_j); rows are non-increasing and
    # in ascending lexicographic order, which is the order of the counts c
    tails = np.arange(steps + 1)[:, None] if m > 1 else np.zeros((1, 0), int)
    for _ in range(m - 2):
        reps = tails[:, -1] + 1
        starts = np.cumsum(reps) - reps
        column = np.arange(starts[-1] + reps[-1]) - np.repeat(starts, reps)
        tails = np.column_stack([np.repeat(tails, reps, axis=0), column])
    G = len(tails)
    bounds = np.hstack([np.full((G, 1), steps), tails, np.zeros((G, 1), int)])
    return (bounds[:, :-1] - bounds[:, 1:]) / steps


def _abscissae(alphas: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """Spectral abscissa of sum_i alpha_i A_i for every row of a (k, m) block."""
    # a vector-matrix product per row rounds the same in a one-row call as
    # in any block; one matrix-matrix product over the block would not
    mats = (alphas[:, None, :] @ flat).reshape(-1, n, n)
    return linalg.spectrum(mats).real.max(axis=-1)


def _nelder_mead(flat: np.ndarray, n: int, x0: np.ndarray):
    """Minimise the abscissa at weights |z| / sum|z| over z, from x0.

    scipy.optimize's non-adaptive Nelder-Mead (scipy 1.17), operation for
    operation: the same initial simplex, centroid, trial points, shrink,
    np.argsort ordering and stopping rule, so every bit of the result
    matches.  An iteration evaluates its four trial points, and a shrink its
    N new vertices, in one _abscissae call each.  Only the points the
    sequential method evaluates are counted, and only when sum|z| > 0 (else
    their value is +inf); an unused trial point never raises.

    Where the stopping rule cannot fire, the sorted simplex and its values
    often come to repeat bit for bit: at a coalescing eigenvalue the
    abscissa is not Lipschitz, so the values stay further apart than fatol
    while the vertices no longer move.  Each state follows from the one
    before alone, so from a repeat on the loop only cycles and its best
    value cannot fall: it stops at the first repeated state, with status
    "cycle".

    Returns (x, value, iterations, status, evaluations), where status is
    "converged", "maxiter" or "cycle".
    """
    N = len(x0)
    evaluations = 0

    def block(points: np.ndarray):
        """Getter of each row's value, as the sequential method takes it.

        The rows are evaluated together.  If that fails (weights not finite
        where sum|z| is 0 or |z| overflowed, or no eigenvalue convergence),
        each row is evaluated alone when taken, so only a point the
        sequential method evaluates can raise.
        """
        az = np.abs(points)
        s = az.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = az / s[:, None]
        try:
            vals = _abscissae(w, flat, n)
        except linalg.NumericalError:
            vals = None

        def take(k: int) -> float:
            nonlocal evaluations
            if s[k] <= 0.0:
                return np.inf
            evaluations += 1
            if vals is None:
                return float(_abscissae(w[k][None], flat, n)[0])
            return float(vals[k])
        return take

    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    take = block(sim)
    fsim = np.array([take(k) for k in range(N + 1)])
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]

    seen = {sim.tobytes() + fsim.tobytes()}
    iterations, status = 1, "maxiter"
    while iterations < _MAXITER:
        if (np.abs(sim[1:] - sim[0]).max() <= _XATOL
                and np.abs(fsim[0] - fsim[1:]).max() <= _FATOL):
            status = "converged"
            break
        xbar = np.add.reduce(sim[:-1], 0) / N    # rows summed in order, as scipy
        trials = _TRIAL_C * xbar - _TRIAL_D * sim[-1]
        take = block(trials)
        fxr, shrink = take(0), False
        if fxr < fsim[0]:
            fxe = take(1)
            k, f = (1, fxe) if fxe < fxr else (0, fxr)
        elif fxr < fsim[-2]:
            k, f = 0, fxr
        elif fxr < fsim[-1]:
            k, f = 2, take(2)
            shrink = f > fxr
        else:
            k, f = 3, take(3)
            shrink = f >= fsim[-1]
        if shrink:
            sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
            take = block(sim[1:])
            fsim[1:] = [take(j) for j in range(N)]
        else:
            sim[-1], fsim[-1] = trials[k], f
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        key = sim.tobytes() + fsim.tobytes()
        if key in seen:
            status = "cycle"
            break
        seen.add(key)
    return sim[0], fsim.min(), iterations, status, evaluations


def find_stable_combination(matrices: Sequence[np.ndarray],
                            resolution: float = 0.05) -> CombinationResult:
    """Minimise the spectral abscissa of sum_i alpha_i A_i over the simplex.

    Coarse grid scan at the given resolution, in stacked eigenvalue calls,
    then a derivative-free refinement from the best grid point: the
    in-house Nelder-Mead of _nelder_mead, which reproduces scipy's result
    bit for bit and evaluates each iteration's trial points in one block.
    A refinement whose simplex comes back to an earlier state stops there;
    evaluations counts the grid and every point the refinement takes.  The
    abscissa is nonsmooth, so no gradients are used.  The refinement's
    status ("converged", "maxiter" or "cycle") and iteration count are
    reported.  A single matrix is a one-point grid with no refinement.  The
    weights carry period 1.  A resolution that is not finite and positive,
    or whose grid would exceed MAX_GRID_ENTRIES weights, raises ValueError
    before any work.
    """
    m = len(matrices)
    if m == 0:
        raise ValueError("need at least one matrix")
    steps = _grid_steps(m, resolution)
    mats = [linalg.as_square(M) for M in matrices]
    n = mats[0].shape[0]
    for M in mats:
        if M.shape != (n, n):
            raise linalg.DimensionError("matrices must share a common dimension")
    flat = np.stack(mats).reshape(m, n * n)

    grid = _simplex_grid(m, steps)
    vals = np.concatenate([_abscissae(grid[k:k + _SCAN_BLOCK], flat, n)
                           for k in range(0, len(grid), _SCAN_BLOCK)])
    best = int(np.argmin(vals))
    best_alpha, best_val = grid[best], float(vals[best])
    evaluations = len(grid)
    refinement = None

    if m > 1:
        x, fval, iterations, status, nm_evaluations = _nelder_mead(
            flat, n, best_alpha + 1e-3)
        evaluations += nm_evaluations
        refinement = {"status": status, "iterations": iterations}
        if np.isfinite(fval) and fval < best_val:
            z = np.abs(x)
            best_alpha, best_val = z / z.sum(), float(fval)

    return CombinationResult(
        weights=Weights(best_alpha),
        abscissa=float(best_val),
        found=bool(best_val < 0.0),
        evaluations=evaluations,
        refinement=refinement,
    )


def default_eta_max(sys: SwitchedSystem, w: Weights) -> float:
    """A few time constants of the average system: 10 / ||A_avg||_2."""
    return 10.0 / linalg.operator_norm_2(average_system(sys, w).A)


def check_eta_search(eta_max: Optional[float], grid_points: int,
                     refine_tol: float) -> None:
    """Refuse max_stable_eta options it cannot work with (ValueError)."""
    if eta_max is not None and not (math.isfinite(eta_max) and eta_max > 0.0):
        raise ValueError(f"eta_max must be finite and > 0, got {eta_max}")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")


def max_stable_eta(sys: SwitchedSystem, w: Weights,
                   eta_max: Optional[float] = None,
                   grid_points: int = 50,
                   refine_tol: float = DEFAULT_REFINE_TOL) -> EtaSearchResult:
    """Supremum of the stable dwell-scale interval anchored at eta -> 0.

    Scans rho(Phi(eta)) on a uniform grid up to eta_max; eta_star is located
    by bisection between the last stable and first unstable grid points.
    rho need not be monotone in eta, so stable islands beyond the first
    instability show up in the grid but never extend eta_star.  The
    bisection also ends when no float lies strictly between its bounds.
    Options that check_eta_search refuses raise ValueError before any work.
    """
    check_eta_search(eta_max, grid_points, refine_tol)
    if linalg.spectral_abscissa(average_system(sys, w).A) >= 0.0:
        raise ValueError("the averaged matrix is not stable; "
                         "run find_stable_combination first")
    if eta_max is None:
        eta_max = default_eta_max(sys, w)

    def rho(eta: float) -> float:
        return linalg.spectral_radius(monodromy(sys, from_weights(w, eta)))

    etas = np.linspace(eta_max / grid_points, eta_max, grid_points)
    grid = tuple((float(e), rho(float(e))) for e in etas)

    first_unstable = next((k for k, (_, r) in enumerate(grid) if r >= 1.0), None)
    if first_unstable is None:
        return EtaSearchResult(float(eta_max), grid, True)

    lo = 0.0 if first_unstable == 0 else grid[first_unstable - 1][0]
    hi = grid[first_unstable][0]
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # no float left between: tol too fine
            break
        if rho(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return EtaSearchResult(float(lo), grid, first_unstable > 0)
