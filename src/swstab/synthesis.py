"""Constructive stabilisation: stable convex combinations and the largest
dwell-time scale at which the constructed periodic signal still stabilises."""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .model import SubSystem, SwitchedSystem, Weights, average_system
from .signals import from_weights
from .simulate import BLOCK_ROWS, MAX_STEPS, poincare_maps


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


# The one scale range of both searches (see _scaled): every family they
# search has its largest entry here or is 0, so no convex combination of
# it, rounding included, overflows; no square in _abscissa_bound
# overflows; and every rounding error the bound's margin covers is far
# above the subnormal range.
_SCALE_RANGE = (2.0 ** -400, 2.0 ** 400)
# Most simplex-grid entries (points x weights) a scan may hold: 100 MB.
MAX_GRID_ENTRIES = 12_500_000
# Simplex-grid spacing when none is given; default_resolution coarsens it.
DEFAULT_RESOLUTION = 0.01
# Relative bisection tolerance on eta and eta grid size of max_stable_eta.
DEFAULT_REFINE_TOL = 1e-3
DEFAULT_GRID_POINTS = 50
# The least refine_tol, 4 ulp of a normal eta: a wider bracket of normal
# floats has one strictly inside.  _TINY is the least normal float.
_MIN_REFINE_TOL, _TINY = 2.0 ** -50, 2.0 ** -1022
# Nelder-Mead stopping rule: simplex spread in x and in value, iterations.
_XATOL, _FATOL, _MAXITER = 1e-10, 1e-12, 2000


def _scaled(what: str, flat: np.ndarray, *rest: np.ndarray) -> tuple:
    """The one scale rule of both searches: (shift, then flat and each
    array of rest times 2^shift).  shift is 0, and the arrays are as given,
    where flat's largest entry is 0 or lies in _SCALE_RANGE (LAPACK is not
    bitwise equivariant under the scaling); else it brings that entry into
    [0.5, 1).  Where that rounds an entry (to a subnormal, or to inf) the
    search would judge another family: linalg.NumericalError, naming what.
    """
    top = float(np.abs(flat).max())
    if top == 0.0 or _SCALE_RANGE[0] <= top <= _SCALE_RANGE[1]:
        return (0, flat, *rest)
    shift = -math.frexp(top)[1]
    scaled = [np.ldexp(x, shift) for x in (flat, *rest)]
    for x, y in zip((flat, *rest), scaled):
        if not np.array_equal(np.ldexp(y, -shift), x):
            raise linalg.NumericalError(f"scaling {what} by 2^{shift} rounds "
                                        "an entry: they span too wide a range")
    return (shift, *scaled)


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


def _abscissae(alphas: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """Spectral abscissa of sum_i alpha_i A_i for every row of a (k, m) block.

    No finiteness check per call: it is for finite weights in [0, 1] and a
    family as _scaled gives it, whose combinations are finite, under
    np.errstate(invalid="ignore").  A NaN abscissa, where LAPACK did not
    converge, raises linalg.spectrum's NumericalError.
    """
    mats = _combinations(alphas, flat, n)
    vals = linalg.finite_spectrum(mats).real.max(axis=-1)
    if any(map(math.isnan, vals.tolist())):
        return linalg.spectrum(mats).real.max(axis=-1)
    return vals


def _point_abscissa(flat: np.ndarray, n: int):
    """The refinement's one-point evaluator: a function of a list w of m
    weights that returns _abscissae(np.array(w)[None], flat, n)[0] as a
    float, bit for bit, under the same conditions.

    It writes w into a buffer and the matrix with the ndarray method
    dot(..., out=...), np.dot without its wrapper, whose 1-d product
    rounds as _combinations' per-row product does; it gives LAPACK the one
    matrix (one linalg.finite_spectrum call per point) and takes Python's
    max over the real parts.  That max keeps the first of equal values
    and numpy's the last, which differ only between 0.0 and -0.0, and it
    can pass over a NaN; so where the max is zero or a real part is NaN
    the value is numpy's reduction of the same eigenvalues, and a NaN,
    where LAPACK did not converge, raises linalg.spectrum's NumericalError.
    """
    weights = np.empty(len(flat))
    matrix = np.empty((n, n))
    entries = matrix.reshape(n * n)     # a view: dot writes the matrix

    def abscissa(w: list) -> float:
        weights[:] = w
        weights.dot(flat, out=entries)
        eigs = linalg.finite_spectrum(matrix)
        reals = eigs.real.tolist()
        value = max(reals)
        if value == 0.0 or any(map(math.isnan, reals)):
            value = float(eigs.real.max())
            if math.isnan(value):
                return float(linalg.spectrum(matrix).real.max())
        return value
    return abscissa


def _abscissa_bound(flat: np.ndarray, n: int):
    """A lower bound on the abscissa _abscissae computes for each row of a
    (k, m) weight block, as a function of the block, for a family as
    _scaled gives it.

    The bound.  For a real n x n matrix A with eigenvalues lambda_j, let
    mu = tr A / n and T = tr(A^2) - n mu^2.  The real parts have mean mu,
    and sum_j (Re lambda_j - mu)^2 = T + sum_j (Im lambda_j)^2 >= T, since
    sum_j lambda_j^2 = tr(A^2) is real.  Reals of mean zero whose squares
    sum to Q have a maximum of at least sqrt(Q / (n (n - 1))) (Laguerre-
    Samuelson), so max Re lambda >= mu + sqrt(max(T, 0) / (n (n - 1))); for
    n = 1 it is mu.  For A = sum_i alpha_i A_i, n mu = alpha . t and
    tr(A^2) = alpha^T G alpha, with t_i = tr A_i and G_ij = tr(A_i A_j).

    The margin.  LAPACK returns the exact eigenvalues of B + E, where B is
    the balanced A' that _combinations forms (a diagonal similarity, so
    tr B^k = tr A'^k and ||B||_F <= ||A'||_F) and ||E||_F <= p u ||A'||_F,
    with u = 2^-53 and p = 10 n^3, well above the "modest function of n"
    of the LAPACK Users' Guide.  So the bound applied to B + E holds for
    what _abscissae returns, once the computed mu and T give way by what
    separates them from those of B + E.  With F = max_i ||A_i||_F and
    weights summing to 1 + O(m u), each gap is at most c u F in mu or
    c u F^2 in T, to first order:
      - A' against the exact sum (||A' - A||_F <= m u F): c = m in mu,
        2 m in tr(A^2);
      - t, alpha . t and the division by n, with A' against A: c = n + 2m
        + 1 in mu, 2 (n + 2 m + 1) in n mu^2;
      - G and the quadratic form: c = n^2 + 2 m + 1 in tr(A^2);
      - the products and the difference that form T: c = 6;
      - E: c = p in mu, 4 p in T;
      - the last roundings of the bound (the square root term is at most
        F): c = 8 in mu.
    Each total is below K = 4 n^2 + 9 m + 5 p + 32, which leaves room for
    the rounding of F and of the weight sum; the bound subtracts K u F
    from mu and K u F^2 from T before the square root.  F lies within a
    factor n of the largest entry, so with that entry in _SCALE_RANGE no
    square overflows, and every one of those terms is far above the
    absolute error of a product that underflows; for the zero family the
    bound is its abscissa, 0.
    """
    m = len(flat)
    F = float(np.sqrt((flat * flat).sum(axis=1)).max())
    t = flat[:, ::n + 1].sum(axis=1)
    G = flat @ flat.reshape(m, n, n).transpose(0, 2, 1).reshape(m, n * n).T
    K = (4 * n * n + 9 * m + 50 * n ** 3 + 32) * 2.0 ** -53
    mu_margin, T_margin, pairs = K * F, K * F * F, n * (n - 1)

    def bound(alphas: np.ndarray) -> np.ndarray:
        mu = alphas @ t / n
        if n == 1:
            return mu - mu_margin
        T = ((alphas @ G) * alphas).sum(axis=1) - n * mu * mu
        return (mu - mu_margin) + np.sqrt(np.maximum(T - T_margin, 0.0)
                                          / pairs)
    return bound


def _scan(grid: np.ndarray, evaluate, bound) -> tuple[int, float]:
    """Index and value of the first minimum of evaluate over the rows of
    grid, bit for bit as np.argmin over evaluate(grid) gives them.

    evaluate maps a (k, m) block of rows to their k values, and bound maps
    it to a lower bound on each.  The rows go to evaluate BLOCK_ROWS at a
    time in ascending order of their bounds, and only those whose bound
    does not exceed the least value found so far: a row whose bound
    exceeds it has a larger value, so it is no minimum.  The scan ends at
    the first block whose least bound exceeds it.  A bound that is not
    finite skips nothing.  Of equal least values, the row of least index
    is kept, whatever the order of evaluation.
    """
    lower = np.empty(len(grid))
    for k in range(0, len(grid), BLOCK_ROWS):
        lower[k:k + BLOCK_ROWS] = bound(grid[k:k + BLOCK_ROWS])
    lower[~np.isfinite(lower)] = -np.inf
    order = lower.argsort()
    lower.sort()                # lower[k] is now the bound of row order[k]
    best, best_val = -1, math.inf
    start = 0
    while start < len(grid):
        block = lower[start:start + BLOCK_ROWS]
        stop = start + int(block.searchsorted(best_val, side="right"))
        if stop == start:
            break
        rows = order[start:stop]
        vals = evaluate(grid[rows])
        # the least row of least value, with that row's own value: 0.0
        # and -0.0 compare equal
        least = vals == vals.min()
        k = int(np.flatnonzero(least)[rows[least].argmin()])
        index, val = int(rows[k]), float(vals[k])
        if val < best_val or (val == best_val and index < best):
            best, best_val = index, val
        start = stop
    return best, best_val


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


def _stopped(sim: list, fsim: list) -> bool:
    """scipy's stopping rule on the sorted simplex: every value within
    fatol of the best, then every vertex within xatol of the best in each
    coordinate.  False on a NaN spread (inf - inf), as scipy's max
    comparison is."""
    f0 = fsim[0]
    for fv in fsim[1:]:
        if not abs(f0 - fv) <= _FATOL:
            return False
    best = sim[0]
    for row in sim[1:]:
        for v, b in zip(row, best):
            if not abs(v - b) <= _XATOL:
                return False
    return True


def _argsorted(sim: list, fsim: list, keys: list):
    """sim, fsim and keys in np.argsort order of fsim."""
    # the ndarray method is np.argsort without its wrapper
    order = np.array(fsim).argsort().tolist()
    return ([sim[k] for k in order], [fsim[k] for k in order],
            [keys[k] for k in order])


def _replace_worst(sim: list, fsim: list, keys: list, x: list, fx: float,
                   key: bytes):
    """A sorted state with its last, worst vertex replaced by x, of value
    fx and repeat key key: sim, fsim and keys as _argsorted orders
    sim[:-1] + [x], fsim[:-1] + [fx] and keys[:-1] + [key].

    Values that are pairwise distinct have one sorted order, so where fx
    and the kept values are, x goes in place by bisect, in the lists
    given.  Ties are judged by ==, so 0.0 and -0.0 tie, as do two infs; a
    state with a tie goes to np.argsort, which need not keep ties in
    order.
    """
    del sim[-1], fsim[-1], keys[-1]
    # a set merges values that are ==: with no tie it keeps all of them
    if len({fx, *fsim}) > len(fsim):
        k = bisect.bisect(fsim, fx)
        sim.insert(k, x)
        fsim.insert(k, fx)
        keys.insert(k, key)
        return sim, fsim, keys
    return _argsorted(sim + [x], fsim + [fx], keys + [key])


def _nelder_mead(f, x0: np.ndarray):
    """Minimise f, a function of a list of floats that never returns NaN,
    from x0.

    scipy.optimize's non-adaptive Nelder-Mead (scipy 1.17), operation for
    operation: the same initial simplex, centroid, trial points, shrink,
    np.argsort ordering and stopping rule, so every bit of the result
    matches.  f gets each point once, in scipy's order: each initial
    vertex, the reflection, then only the expansion or the one contraction
    its branch needs, and each shrink vertex.

    The simplex is kept in Python floats: scipy's numpy expressions act
    elementwise, so each gives the same double in Python; the centroid's
    np.add.reduce over axis 0 adds each column's rows in order from 0.0.
    The initial simplex and every shrink go to np.argsort; a step that
    replaces the worst vertex goes to _replace_worst, which puts the new
    vertex in place by bisect unless a value ties, so np.argsort sees only
    the states with a tie.  The repeat key is a tuple of one blob per
    vertex, its point and value packed by struct as numpy would lay them
    out, so two keys are equal exactly when the states are equal bit for
    bit (a float comparison equates 0.0 and -0.0); a step packs only its
    new vertex.

    Where the stopping rule cannot fire, the sorted simplex and its values
    often come to repeat bit for bit: at a coalescing eigenvalue the
    abscissa is not Lipschitz, so the values stay further apart than fatol
    while the vertices no longer move.  Each state follows from the one
    before alone, so from a repeat on the loop only cycles and its best
    value cannot fall: it stops at the first repeated state, with status
    "cycle".

    Returns (x, value, iterations, status), where status is "converged",
    "maxiter" or "cycle".
    """
    N = len(x0)
    pack = struct.Struct(f"{N + 1}d").pack

    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(N):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(v) for v in sim]
    sim, fsim, keys = _argsorted(sim, fsim,
                                 [pack(*v, fv) for v, fv in zip(sim, fsim)])

    seen = {tuple(keys)}
    iterations, status = 1, "maxiter"
    while iterations < _MAXITER:
        if _stopped(sim, fsim):
            status = "converged"
            break
        best, worst = sim[0], sim[-1]
        xbar = []
        for column in zip(*sim[:-1]):
            c = 0.0
            for v in column:
                c += v
            xbar.append(c / N)
        # reflection, expansion and contractions: rho = 1, chi = 2, psi = 1/2
        xr = [2.0 * c - w for c, w in zip(xbar, worst)]
        fxr = f(xr)
        x, fx, shrink = xr, fxr, False
        if fxr < fsim[0]:
            xe = [3.0 * c - 2.0 * w for c, w in zip(xbar, worst)]
            fxe = f(xe)
            if fxe < fxr:
                x, fx = xe, fxe
        elif fxr >= fsim[-2]:       # values are never NaN
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
            keys = keys[:1] + [pack(*v, fv)
                               for v, fv in zip(sim[1:], fsim[1:])]
            sim, fsim, keys = _argsorted(sim, fsim, keys)
        else:
            sim, fsim, keys = _replace_worst(sim, fsim, keys,
                                             x, fx, pack(*x, fx))
        iterations += 1
        state = tuple(keys)
        if state in seen:
            status = "cycle"
            break
        seen.add(state)
    return np.array(sim[0]), np.min(fsim), iterations, status


def find_stable_combination(matrices: Sequence[np.ndarray],
                            resolution: Optional[float] = None
                            ) -> CombinationResult:
    """Minimise the spectral abscissa of sum_i alpha_i A_i over the simplex.

    A grid scan at the given resolution (_scan, pruned by _abscissa_bound,
    the first minimum in grid order bit for bit), its blocks to
    _abscissae; then, for m > 1, a refinement from the best grid point by
    _nelder_mead, scipy's Nelder-Mead bit for bit, of the abscissa at
    weights |z| / sum|z|, each point to _point_abscissa's evaluator (the
    abscissa is nonsmooth: no gradients).  A refinement point whose sum|z|
    is 0 or overflows has value +inf; evaluations counts every grid point,
    skipped or not, and every other refinement point.  The weights carry
    period 1.  No resolution means default_resolution(m).  A resolution
    that is not finite and positive, or whose grid would exceed
    MAX_GRID_ENTRIES weights, raises ValueError before any work.  The
    family's scale is _scaled's, as in max_stable_eta; the abscissa is
    positively homogeneous, so the weights, found, evaluations and
    refinement are the scaled family's, and the abscissa is its value
    scaled back, or inf where that overflows.
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
    shift, flat = _scaled("the family", np.stack(mats).reshape(m, n * n))

    grid = _simplex_grid(m, steps)
    evaluations = len(grid)
    abscissa_at = _point_abscissa(flat, n)

    def objective(z: list) -> float:
        """The abscissa at |z| / sum|z| (sum|z| is np.sum's, and each
        quotient numpy's); +inf, and not counted, where sum|z| is 0 or
        overflows."""
        nonlocal evaluations
        az = [abs(v) for v in z]
        s = _sum(az)
        if not 0.0 < s < math.inf:
            return math.inf
        evaluations += 1
        return abscissa_at([a / s for a in az])

    refinement = None
    # the scan and the refinement, under the one errstate _abscissae needs
    with np.errstate(invalid="ignore"):
        best, best_val = _scan(grid,
                               lambda alphas: _abscissae(alphas, flat, n),
                               _abscissa_bound(flat, n))
        best_alpha = grid[best]
        if m > 1:
            x, fval, iterations, status = _nelder_mead(objective,
                                                       best_alpha + 1e-3)
            refinement = {"status": status, "iterations": iterations}
            if fval < best_val:
                z = np.abs(x)
                best_alpha, best_val = z / z.sum(), float(fval)
    with np.errstate(over="ignore"):
        abscissa = float(np.ldexp(best_val, -shift))
    return CombinationResult(Weights(best_alpha), abscissa,
                             bool(best_val < 0.0), evaluations, refinement)


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
    # at 1 or above a bracket (0, hi] is already narrow enough: eta_star 0
    if not _MIN_REFINE_TOL <= refine_tol < 1.0:
        raise ValueError(f"refine_tol must lie in [2^-50, 1), got {refine_tol}")


def _grid_radii(sys: SwitchedSystem, w: Weights,
                etas: list[float]) -> list[float]:
    """rho(Phi(eta)) for each eta, BLOCK_ROWS etas at a time: one stacked
    exponential builds a block's monodromies and one stacked eigenvalue
    call gives their radii, each with the bits of its own monodromy and
    linalg.spectral_radius calls.  A Phi that is not finite has overflowed
    and is unstable, with radius inf.  The only route from eta to rho in
    max_stable_eta: the grid passes every eta, the bisection one."""
    radii = []
    for k in range(0, len(etas), BLOCK_ROWS):
        sigs = [from_weights(w, eta) for eta in etas[k:k + BLOCK_ROWS]]
        Phis = np.stack([pm.M for pm in poincare_maps(sys, sigs)])
        finite = np.isfinite(Phis).all(axis=(1, 2))
        block = np.full(len(Phis), math.inf)
        if finite.any():
            block[finite] = np.abs(linalg.spectrum(Phis[finite])).max(axis=-1)
        radii += block.tolist()
    return radii


def max_stable_eta(sys: SwitchedSystem, w: Weights,
                   eta_max: Optional[float] = None,
                   grid_points: int = DEFAULT_GRID_POINTS,
                   refine_tol: float = DEFAULT_REFINE_TOL) -> EtaSearchResult:
    """Supremum of the stable dwell-scale interval anchored at eta -> 0.

    Scans rho(Phi(eta)) on a uniform grid up to eta_max; eta_star is located
    by bisection between the last stable and first unstable grid points.
    rho need not be monotone in eta, so stable islands beyond the first
    instability show up in the grid but never extend eta_star.  Every rho
    comes from _grid_radii.  The bisection ends once its bracket (lo, hi]
    is at most refine_tol * hi wide; refine_tol < 1, so then lo > 0.
    Options that check_eta_search refuses raise ValueError before any work,
    and so do weights whose abscissa the simplex search would not find
    below 0 (by _abscissae, on the family it searches).  The search runs on
    2^shift (A_i, b_i), shift from _scaled on the A_i: Phi there at
    eta / 2^shift is Phi at eta, bit for bit, so etas in and out are scaled.
    linalg.NumericalError is raised where the scaling rounds a b_i entry,
    eta_max overflows in either scale or its grid spacing is subnormal, or
    rho stays >= 1 until a smaller eta would be subnormal (the relative
    width needs normal floats) or underflow a dwell time.
    """
    check_eta_search(eta_max, grid_points, refine_tol)
    if w.m != sys.m:
        raise linalg.DimensionError(
            f"weights have length {w.m}, system has {sys.m} subsystems")
    n = sys.n
    shift, flat, drifts = _scaled(
        "the eta search's family (A_i, b_i)",
        np.stack([sub.A.ravel() for sub in sys.subsystems]),
        np.stack([sub.b for sub in sys.subsystems]))
    with np.errstate(invalid="ignore"):
        if not _abscissae(w.alpha[None], flat, n)[0] < 0.0:
            raise ValueError("the averaged matrix is not stable; "
                             "run find_stable_combination first")
    if shift:
        sys = SwitchedSystem(tuple(SubSystem(A.reshape(n, n), b)
                                   for A, b in zip(flat, drifts)))
    with np.errstate(over="ignore"):    # top: eta_max in the search's scale
        top = (default_eta_max(sys, w) if eta_max is None
               else float(np.ldexp(eta_max, -shift)))
        eta_max = float(np.ldexp(top, shift))
    if not (eta_max < math.inf and _TINY <= top / grid_points < math.inf):
        raise linalg.NumericalError(
            f"the eta search cannot use eta_max: it is {top:.6g} at the "
            f"family's scale 2^{shift}, and overflows in one of the two "
            "scales or gives a grid spacing below the normal floats")

    etas = np.linspace(top / grid_points, top, grid_points).tolist()
    radii = _grid_radii(sys, w, etas)
    grid = tuple((math.ldexp(e, shift), r) for e, r in zip(etas, radii))
    first_unstable = next((k for k, r in enumerate(radii) if r >= 1.0), None)
    if first_unstable is None:
        return EtaSearchResult(eta_max, grid, True)

    lo = 0.0 if first_unstable == 0 else etas[first_unstable - 1]
    hi = etas[first_unstable]
    # the weight of the shortest dwell, eta * a_min * period in from_weights
    a_min = min(a for a in w.alpha.tolist() if a > 0.0)
    while hi - lo > refine_tol * hi:
        mid = 0.5 * (lo + hi)
        # fires only while lo == 0: a stable lo is normal, its dwells > 0
        if not (mid >= _TINY and mid * a_min * w.period > 0.0):
            raise linalg.NumericalError(
                f"no stable eta found: rho(Phi) did not fall below 1 at any "
                f"eta tried, down to eta = {math.ldexp(hi, shift):.6g}, and a "
                "smaller one would be subnormal or underflow a dwell time")
        if _grid_radii(sys, w, [mid])[0] < 1.0:
            lo = mid
        else:
            hi = mid
    return EtaSearchResult(math.ldexp(lo, shift), grid, first_unstable > 0)
