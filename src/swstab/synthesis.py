"""Constructive stabilisation: stable convex combinations and the largest
dwell-time scale at which the constructed periodic signal still stabilises."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.optimize

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

    def to_dict(self) -> dict:
        return {
            "alpha": self.weights.alpha.tolist(),
            "period": self.weights.period,
            "abscissa": self.abscissa,
            "found": self.found,
            "evaluations": self.evaluations,
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


def _simplex_grid(m: int, steps: int):
    """All weight vectors with entries k/steps summing to 1."""
    for comp in itertools.combinations_with_replacement(range(m), steps):
        counts = np.bincount(comp, minlength=m)
        yield counts / steps


def find_stable_combination(matrices: Sequence[np.ndarray],
                            resolution: float = 0.05) -> CombinationResult:
    """Minimise the spectral abscissa of sum_i alpha_i A_i over the simplex.

    Coarse grid scan at the given resolution, then a derivative-free
    (Nelder-Mead) refinement from the best grid point; the abscissa is
    nonsmooth, so no gradients are used.  The weights carry period 1.
    """
    mats = [linalg.as_square(M) for M in matrices]
    m = len(mats)
    if m == 0:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    for M in mats:
        if M.shape != (n, n):
            raise linalg.DimensionError("matrices must share a common dimension")
    stacked = np.stack(mats)

    evaluations = 0

    def abscissa(alpha: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return linalg.spectral_abscissa(np.tensordot(alpha, stacked, axes=1))

    if m == 1:
        best_alpha = np.array([1.0])
        best_val = abscissa(best_alpha)
    else:
        steps = max(1, round(1.0 / resolution))
        best_alpha, best_val = None, np.inf
        for alpha in _simplex_grid(m, steps):
            val = abscissa(alpha)
            if val < best_val:
                best_alpha, best_val = alpha, val

        def objective(z: np.ndarray) -> float:
            az = np.abs(z)
            s = az.sum()
            if s <= 0.0:
                return np.inf
            return abscissa(az / s)

        res = scipy.optimize.minimize(
            objective, best_alpha + 1e-3, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if np.isfinite(res.fun) and res.fun < best_val:
            z = np.abs(res.x)
            best_alpha, best_val = z / z.sum(), float(res.fun)

    return CombinationResult(
        weights=Weights(best_alpha),
        abscissa=float(best_val),
        found=bool(best_val < 0.0),
        evaluations=evaluations,
    )


def default_eta_max(sys: SwitchedSystem, w: Weights) -> float:
    """A few time constants of the average system: 10 / ||A_avg||_2."""
    return 10.0 / linalg.operator_norm_2(average_system(sys, w).A)


def max_stable_eta(sys: SwitchedSystem, w: Weights,
                   eta_max: Optional[float] = None,
                   grid_points: int = 50,
                   refine_tol: float = 1e-3) -> EtaSearchResult:
    """Supremum of the stable dwell-scale interval anchored at eta -> 0.

    Scans rho(Phi(eta)) on a uniform grid up to eta_max; eta_star is located
    by bisection between the last stable and first unstable grid points.
    rho need not be monotone in eta, so stable islands beyond the first
    instability show up in the grid but never extend eta_star.
    """
    if linalg.spectral_abscissa(average_system(sys, w).A) >= 0.0:
        raise ValueError("the averaged matrix is not stable; "
                         "run find_stable_combination first")
    if eta_max is None:
        eta_max = default_eta_max(sys, w)
    if not eta_max > 0.0:
        raise ValueError(f"eta_max must be positive, got {eta_max}")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")

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
        if rho(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return EtaSearchResult(float(lo), grid, first_unstable > 0)
