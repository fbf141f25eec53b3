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
from .simulate import MAX_STEPS
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
# Simplex-grid spacing when none is given; default_resolution coarsens it.
DEFAULT_RESOLUTION = 0.01
# Bisection tolerance on eta and eta grid size of max_stable_eta.
DEFAULT_REFINE_TOL = 1e-3
DEFAULT_GRID_POINTS = 50
# Nelder-Mead stopping rule: simplex spread in x and in value, iterations.
_XATOL, _FATOL, _MAXITER = 1e-10, 1e-12, 2000


def _grid_entries(m: int, steps: int) -> int:
    """Weights (points x m) in the simplex grid of the given divisions."""
    return math.comb(steps + m - 1, m - 1) * m


def default_resolution(m: int) -> float:
    """DEFAULT_RESOLUTION, or else the finest coarser 1/steps whose grid of
    m weights fits MAX_GRID_ENTRIES."""
    steps = round(1.0 / DEFAULT_RESOLUTION)
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
    matches.  Points are evaluated one at a time, in scipy's order: each
    initial vertex, the reflection, then only the expansion or the one
    contraction its branch needs, and each shrink vertex.  Every point with
    sum|z| > 0 is one _abscissae call and one evaluation; a point with
    sum|z| = 0 has value +inf and is not counted.

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

    def f(z: np.ndarray) -> float:
        nonlocal evaluations
        az = np.abs(z)
        s = az.sum()
        if s <= 0.0:
            return np.inf
        evaluations += 1
        return float(_abscissae((az / s)[None], flat, n)[0])

    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim])
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
        # reflection, expansion and contractions: rho = 1, chi = 2, psi = 1/2
        xr = 2.0 * xbar - sim[-1]
        fxr = f(xr)
        x, fx, shrink = xr, fxr, False
        if fxr < fsim[0]:
            xe = 3.0 * xbar - 2.0 * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                x, fx = xe, fxe
        elif fxr >= fsim[-2]:       # values are never NaN: spectrum raises
            if fxr < fsim[-1]:
                x = 1.5 * xbar - 0.5 * sim[-1]
                fx = f(x)
                shrink = fx > fxr
            else:
                x = 0.5 * xbar + 0.5 * sim[-1]
                fx = f(x)
                shrink = fx >= fsim[-1]
        if shrink:
            sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
            fsim[1:] = [f(v) for v in sim[1:]]
        else:
            sim[-1], fsim[-1] = x, fx
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
                            resolution: Optional[float] = None
                            ) -> CombinationResult:
    """Minimise the spectral abscissa of sum_i alpha_i A_i over the simplex.

    Coarse grid scan at the given resolution, in stacked eigenvalue calls,
    then a derivative-free refinement from the best grid point: the
    in-house Nelder-Mead of _nelder_mead, which reproduces scipy's result
    bit for bit and evaluates one point at a time, as scipy does.  A
    refinement whose simplex comes back to an earlier state stops there;
    evaluations counts the grid and every point the refinement evaluates.
    The abscissa is nonsmooth, so no gradients are used.  The refinement's
    status ("converged", "maxiter" or "cycle") and iteration count are
    reported.  A single matrix is a one-point grid with no refinement.  The
    weights carry period 1.  No resolution means default_resolution(m).  A
    resolution that is not finite and positive, or whose grid would exceed
    MAX_GRID_ENTRIES weights, raises ValueError before any work.
    """
    m = len(matrices)
    if m == 0:
        raise ValueError("need at least one matrix")
    if resolution is None:
        resolution = default_resolution(m)
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
        if fval < best_val:
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
    # each grid point is one monodromy, and the grid one array of floats
    if not 1 <= grid_points <= MAX_STEPS:
        raise ValueError(f"grid_points must be between 1 and MAX_STEPS = "
                         f"{MAX_STEPS}, got {grid_points}")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")


def max_stable_eta(sys: SwitchedSystem, w: Weights,
                   eta_max: Optional[float] = None,
                   grid_points: int = DEFAULT_GRID_POINTS,
                   refine_tol: float = DEFAULT_REFINE_TOL) -> EtaSearchResult:
    """Supremum of the stable dwell-scale interval anchored at eta -> 0.

    Scans rho(Phi(eta)) on a uniform grid up to eta_max; eta_star is located
    by bisection between the last stable and first unstable grid points.
    rho need not be monotone in eta, so stable islands beyond the first
    instability show up in the grid but never extend eta_star.  An eta
    whose monodromy overflows is unstable, with rho recorded as inf.  The
    bisection runs until its bracket is at most refine_tol wide and it has
    found a stable eta, so eta_star > 0; it also ends when no float lies
    strictly between its bounds.
    Options that check_eta_search refuses raise ValueError before any work.
    """
    check_eta_search(eta_max, grid_points, refine_tol)
    if linalg.spectral_abscissa(average_system(sys, w).A) >= 0.0:
        raise ValueError("the averaged matrix is not stable; "
                         "run find_stable_combination first")
    if eta_max is None:
        eta_max = default_eta_max(sys, w)

    def rho(eta: float) -> float:
        Phi = monodromy(sys, from_weights(w, eta))
        return linalg.spectral_radius(Phi) if np.isfinite(Phi).all() else math.inf

    etas = np.linspace(eta_max / grid_points, eta_max, grid_points)
    grid = tuple((float(e), rho(float(e))) for e in etas)

    first_unstable = next((k for k, (_, r) in enumerate(grid) if r >= 1.0), None)
    if first_unstable is None:
        return EtaSearchResult(float(eta_max), grid, True)

    lo = 0.0 if first_unstable == 0 else grid[first_unstable - 1][0]
    hi = grid[first_unstable][0]
    while hi - lo > refine_tol or lo == 0.0:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # no float left between: tol too fine
            break
        if rho(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return EtaSearchResult(float(lo), grid, first_unstable > 0)
