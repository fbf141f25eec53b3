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
from .simulate import BLOCK_ROWS, MAX_STEPS, poincare_maps
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


# Largest |entry| of the matrices for which the lean _abscissae runs: no
# convex combination of them, rounding included, overflows.
_LEAN_BOUND = np.finfo(float).max / 4
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


def _combinations(alphas: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """sum_i alpha_i A_i for every row of a (k, m) block, as (k, n, n)."""
    # a vector-matrix product per row rounds the same in a one-row call as
    # in any block; one matrix-matrix product over the block would not
    return (alphas[:, None, :] @ flat).reshape(-1, n, n)


def _checked_abscissae(alphas: np.ndarray, flat: np.ndarray,
                       n: int) -> np.ndarray:
    """_abscissae through linalg.spectrum, which refuses a non-finite
    combination with NumericalError."""
    return linalg.spectrum(_combinations(alphas, flat, n)).real.max(axis=-1)


def _abscissae(alphas: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """Spectral abscissa of sum_i alpha_i A_i for every row of a (k, m) block.

    The search's lean evaluator: no finiteness check per call.  It is for
    finite weights in [0, 1] and entries of flat within _LEAN_BOUND, whose
    combinations are finite; find_stable_combination checks that once per
    search, and runs the search under np.errstate(invalid="ignore").  A
    NaN abscissa, where LAPACK did not converge, goes to
    _checked_abscissae, which raises linalg.spectrum's NumericalError.
    """
    vals = linalg.finite_spectrum(_combinations(alphas, flat, n)).real.max(
        axis=-1)
    if any(map(math.isnan, vals.tolist())):
        return _checked_abscissae(alphas, flat, n)
    return vals


def _sum(values: list) -> float:
    """np.sum of a list of floats, bit for bit: below 8 values numpy adds
    them left to right from 0, which a Python loop does too (not the
    builtin sum, which Python 3.12 compensates); from 8 on numpy sums
    pairwise, and numpy does the sum."""
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = 0.0
    for v in values:
        total += v
    return total


def _nelder_mead(flat: np.ndarray, n: int, x0: np.ndarray, evaluate=None):
    """Minimise the abscissa at weights |z| / sum|z| over z, from x0.

    scipy.optimize's non-adaptive Nelder-Mead (scipy 1.17), operation for
    operation: the same initial simplex, centroid, trial points, shrink,
    np.argsort ordering and stopping rule, so every bit of the result
    matches.  Points are evaluated one at a time, in scipy's order: each
    initial vertex, the reflection, then only the expansion or the one
    contraction its branch needs, and each shrink vertex.  Every point with
    sum|z| > 0 is one call of evaluate (default _abscissae) and one
    evaluation; a point with sum|z| = 0 has value +inf and is not counted.
    A point whose sum|z| overflows goes to _checked_abscissae.

    The simplex and the weights are kept in Python floats: scipy's numpy
    expressions act elementwise, so each gives the same double in Python;
    the centroid's np.add.reduce over axis 0 adds the rows in order from 0,
    and sum|z| is _sum.  Two steps stay in numpy: np.argsort (which need
    not keep ties in order) and the bytes of the repeat key (a float
    comparison equates 0.0 and -0.0).

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
    if evaluate is None:
        evaluate = _abscissae
    N = len(x0)
    evaluations = 0

    def f(z: list) -> float:
        nonlocal evaluations
        az = [abs(v) for v in z]
        s = _sum(az)
        if s <= 0.0:
            return math.inf
        evaluations += 1
        weights = np.array([[a / s for a in az]])
        if s < math.inf:
            return float(evaluate(weights, flat, n)[0])
        return float(_checked_abscissae(weights, flat, n)[0])

    def sorted_state(sim, fsim):
        """sim and fsim in np.argsort order of fsim, and their bytes."""
        # the ndarray method is np.argsort without its wrapper
        order = np.array(fsim).argsort().tolist()
        sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
        state = np.array([v for row in sim for v in row] + fsim).tobytes()
        return sim, fsim, state

    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(N):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim, fsim, state = sorted_state(sim, [f(v) for v in sim])

    seen = {state}
    iterations, status = 1, "maxiter"
    while iterations < _MAXITER:
        best, worst = sim[0], sim[-1]
        # all(<=) is max <= tol, and false on a NaN as the max comparison is
        if (all(abs(v - b) <= _XATOL
                for row in sim[1:] for v, b in zip(row, best))
                and all(abs(fsim[0] - fv) <= _FATOL for fv in fsim[1:])):
            status = "converged"
            break
        xbar = [0.0] * N
        for row in sim[:-1]:
            xbar = [c + v for c, v in zip(xbar, row)]
        xbar = [c / N for c in xbar]
        # reflection, expansion and contractions: rho = 1, chi = 2, psi = 1/2
        xr = [2.0 * c - w for c, w in zip(xbar, worst)]
        fxr = f(xr)
        x, fx, shrink = xr, fxr, False
        if fxr < fsim[0]:
            xe = [3.0 * c - 2.0 * w for c, w in zip(xbar, worst)]
            fxe = f(xe)
            if fxe < fxr:
                x, fx = xe, fxe
        elif fxr >= fsim[-2]:       # values are never NaN: spectrum raises
            if fxr < fsim[-1]:
                x = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                fx = f(x)
                shrink = fx > fxr
            else:
                x = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                fx = f(x)
                shrink = fx >= fsim[-1]
        if shrink:
            sim = [best] + [[b + 0.5 * (v - b) for v, b in zip(row, best)]
                            for row in sim[1:]]
            fsim = fsim[:1] + [f(v) for v in sim[1:]]
        else:
            sim, fsim = sim[:-1] + [x], fsim[:-1] + [fx]
        iterations += 1
        sim, fsim, state = sorted_state(sim, fsim)
        if state in seen:
            status = "cycle"
            break
        seen.add(state)
    return np.array(sim[0]), np.min(fsim), iterations, status, evaluations


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
    MAX_GRID_ENTRIES weights, raises ValueError before any work.  The
    search checks once that no combination can overflow and then evaluates
    with the lean _abscissae; matrices with an entry beyond _LEAN_BOUND
    take linalg.spectrum's checked path at every point.
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
    # the one finiteness check of the search; beyond the bound every point
    # takes the checked path
    evaluate = (_abscissae if np.abs(flat).max() <= _LEAN_BOUND
                else _checked_abscissae)

    grid = _simplex_grid(m, steps)
    with np.errstate(invalid="ignore"):
        vals = np.concatenate([evaluate(grid[k:k + BLOCK_ROWS], flat, n)
                               for k in range(0, len(grid), BLOCK_ROWS)])
    best = int(np.argmin(vals))
    best_alpha, best_val = grid[best], float(vals[best])
    evaluations = len(grid)
    refinement = None

    if m > 1:
        with np.errstate(invalid="ignore"):
            x, fval, iterations, status, nm_evaluations = _nelder_mead(
                flat, n, best_alpha + 1e-3, evaluate)
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
                     refine_tol: float = DEFAULT_REFINE_TOL) -> None:
    """Refuse max_stable_eta options it cannot work with (ValueError)."""
    if eta_max is not None and not (math.isfinite(eta_max) and eta_max > 0.0):
        raise ValueError(f"eta_max must be finite and > 0, got {eta_max}")
    # the grid and its radii are lists of grid_points floats
    if not 1 <= grid_points <= MAX_STEPS:
        raise ValueError(f"grid_points must be between 1 and MAX_STEPS = "
                         f"{MAX_STEPS}, got {grid_points}")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")


def _radii(Phis: np.ndarray) -> list[float]:
    """Spectral radius of each monodromy in a (k, n, n) stack, each with the
    bits of its own linalg.spectral_radius call; a Phi that is not finite
    has overflowed and is unstable, with radius inf."""
    finite = np.isfinite(Phis).all(axis=(1, 2))
    radii = np.full(len(Phis), math.inf)
    if finite.any():
        radii[finite] = np.abs(linalg.spectrum(Phis[finite])).max(axis=-1)
    return radii.tolist()


def _grid_radii(sys: SwitchedSystem, w: Weights,
                etas: list[float]) -> list[float]:
    """rho(Phi(eta)) for each eta by _radii, BLOCK_ROWS etas at a time: one
    stacked exponential builds a block's monodromies, each with the bits
    of its own monodromy call."""
    radii = []
    for k in range(0, len(etas), BLOCK_ROWS):
        sigs = [from_weights(w, eta) for eta in etas[k:k + BLOCK_ROWS]]
        radii += _radii(np.stack([pm.M for pm in poincare_maps(sys, sigs)]))
    return radii


def max_stable_eta(sys: SwitchedSystem, w: Weights,
                   eta_max: Optional[float] = None,
                   grid_points: int = DEFAULT_GRID_POINTS,
                   refine_tol: float = DEFAULT_REFINE_TOL) -> EtaSearchResult:
    """Supremum of the stable dwell-scale interval anchored at eta -> 0.

    Scans rho(Phi(eta)) on a uniform grid up to eta_max; eta_star is located
    by bisection between the last stable and first unstable grid points.
    rho need not be monotone in eta, so stable islands beyond the first
    instability show up in the grid but never extend eta_star.  An eta
    whose monodromy overflows is unstable, with rho recorded as inf; that
    rule lives in _radii, which both the grid and the bisection use.  The
    bisection runs until its bracket is at most refine_tol wide and it has
    found a stable eta, so eta_star > 0; it also ends when no float lies
    strictly between its bounds.  The grid's monodromies come BLOCK_ROWS
    at a time from one stacked exponential (_grid_radii); the bisection
    computes one monodromy per step.
    Options that check_eta_search refuses raise ValueError before any work.
    If rho stays >= 1 at every eta tried until a smaller eta would make a
    dwell time underflow to 0, linalg.NumericalError is raised.
    """
    check_eta_search(eta_max, grid_points, refine_tol)
    if linalg.spectral_abscissa(average_system(sys, w).A) >= 0.0:
        raise ValueError("the averaged matrix is not stable; "
                         "run find_stable_combination first")
    if eta_max is None:
        eta_max = default_eta_max(sys, w)

    etas = np.linspace(eta_max / grid_points, eta_max, grid_points).tolist()
    grid = tuple(zip(etas, _grid_radii(sys, w, etas)))

    first_unstable = next((k for k, (_, r) in enumerate(grid) if r >= 1.0), None)
    if first_unstable is None:
        return EtaSearchResult(float(eta_max), grid, True)

    lo = 0.0 if first_unstable == 0 else grid[first_unstable - 1][0]
    hi = grid[first_unstable][0]
    # the weight of the shortest dwell, eta * a_min * period in from_weights
    a_min = min(a for a in w.alpha.tolist() if a > 0.0)
    while hi - lo > refine_tol or lo == 0.0:
        mid = 0.5 * (lo + hi)
        # only while lo == 0: above a stable lo every dwell is positive
        if not mid * a_min * w.period > 0.0:
            raise linalg.NumericalError(
                f"no stable eta found: rho(Phi) did not fall below 1 at any "
                f"eta tried, down to eta = {hi:.6g}, and a smaller eta "
                "would make a dwell time underflow to 0")
        if not lo < mid < hi:       # no float left between: tol too fine
            break
        if _radii(monodromy(sys, from_weights(w, mid))[None])[0] < 1.0:
            lo = mid
        else:
            hi = mid
    return EtaSearchResult(float(lo), grid, first_unstable > 0)
