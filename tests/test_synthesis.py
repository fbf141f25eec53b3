import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import presets, synthesis
from swstab.linalg import NumericalError, spectral_abscissa
from swstab.model import Weights
from swstab.signals import activation_fractions, from_weights
from swstab.stability import is_ici_stable
from swstab.synthesis import (MAX_GRID_ENTRIES, default_eta_max,
                              find_stable_combination, max_stable_eta)
from conftest import random_stable_pair


class TestFindStableCombination:
    def test_benchmark_pair(self):
        result = find_stable_combination([presets.A1, presets.A2],
                                         resolution=0.01)
        assert result.found
        assert result.abscissa < 0.0
        # the even mixture is already stable with abscissa -0.5, so the
        # optimum can only be at least that good
        assert result.abscissa <= -0.5 + 1e-9
        assert result.evaluations > 0

    def test_even_mixture_is_stable_point(self):
        even = 0.5 * (presets.A1 + presets.A2)
        assert spectral_abscissa(even) == pytest.approx(-0.5)

    def test_single_stable_matrix(self):
        result = find_stable_combination([np.diag([-1.0, -2.0])])
        assert result.found
        np.testing.assert_allclose(result.weights.alpha, [1.0])

    def test_infeasible_family(self):
        # the top-left entry is 1 for every convex combination
        result = find_stable_combination(
            [np.diag([1.0, 1.0]), np.diag([1.0, -1.0])], resolution=0.05)
        assert not result.found
        assert result.abscissa >= 1.0 - 1e-9

    def test_abscissa_reverified(self, rng):
        for _ in range(5):
            A, B = random_stable_pair(rng)
            result = find_stable_combination([A, B], resolution=0.05)
            assert result.found
            mix = sum(a * M for a, M in zip(result.weights.alpha, (A, B)))
            assert spectral_abscissa(mix) == pytest.approx(result.abscissa,
                                                           abs=1e-10)
            assert spectral_abscissa(mix) < 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_matrix_is_one_point(self, n):
        A = np.random.default_rng(n).normal(size=(n, n))
        result = find_stable_combination([A])
        assert result.abscissa == spectral_abscissa(A)
        assert result.evaluations == 1
        assert np.array_equal(result.weights.alpha, [1.0])

    def test_dimension_mismatch(self):
        from swstab.linalg import DimensionError
        with pytest.raises(DimensionError):
            find_stable_combination([np.eye(2), np.eye(3)])


def per_point_combination(matrices, resolution, maxiter=2000):
    """find_stable_combination as one abscissa call per grid point: the
    scan-then-Nelder-Mead reference the stacked scan must reproduce."""
    stacked = np.stack(matrices)
    m = len(matrices)
    evaluations = 0

    def abscissa(alpha):
        nonlocal evaluations
        evaluations += 1
        return spectral_abscissa(np.tensordot(alpha, stacked, axes=1))

    steps = max(1, round(1.0 / resolution))
    best_alpha, best_val = None, np.inf
    for comp in itertools.combinations_with_replacement(range(m), steps):
        alpha = np.bincount(comp, minlength=m) / steps
        val = abscissa(alpha)
        if val < best_val:
            best_alpha, best_val = alpha, val

    def objective(z):
        az = np.abs(z)
        s = az.sum()
        return np.inf if s <= 0.0 else abscissa(az / s)

    res = scipy.optimize.minimize(
        objective, best_alpha + 1e-3, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": maxiter})
    if np.isfinite(res.fun) and res.fun < best_val:
        z = np.abs(res.x)
        best_alpha, best_val = z / z.sum(), float(res.fun)
    return best_alpha, float(best_val), evaluations


class TestStackedScan:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 9))
    def test_grid_matches_combinations(self, m, steps):
        expected = np.array([
            np.bincount(comp, minlength=m) / steps
            for comp in itertools.combinations_with_replacement(range(m),
                                                                steps)])
        grid = synthesis._simplex_grid(m, steps)
        assert grid.shape == expected.shape
        assert np.array_equal(grid, expected)

    # (3, 2, 0.02) has 1326 grid points: its scan spans six blocks
    @pytest.mark.parametrize("m, n, resolution", [
        (2, 2, 0.01), (2, 3, 0.02), (2, 4, 0.05), (3, 2, 0.02), (3, 3, 0.05),
        (3, 4, 0.05), (4, 2, 0.1), (4, 3, 0.1), (4, 4, 0.125)])
    def test_equals_per_point_reference(self, m, n, resolution):
        matrices = list(np.random.default_rng([m, n]).normal(size=(m, n, n)))
        result = find_stable_combination(matrices, resolution=resolution)
        alpha, val, evaluations = per_point_combination(matrices, resolution)
        assert np.array_equal(result.weights.alpha, alpha)
        assert result.abscissa == val
        if result.refinement["status"] == "cycle":
            # a refinement that stops on a cycle counts what it took so far
            evaluations = per_point_combination(
                matrices, resolution, result.refinement["iterations"])[2]
        assert result.evaluations == evaluations


def scipy_refinement(matrices, resolution, maxiter=2000):
    """The grid scan, then scipy's Nelder-Mead on the one-row objective:
    the oracle the in-house loop must reproduce.  Returns the weights, the
    abscissa, the counted evaluations, scipy's result and the weight rows
    the sequential method evaluated."""
    m, n = len(matrices), len(matrices[0])
    flat = np.stack(matrices).reshape(m, n * n)
    grid = synthesis._simplex_grid(m, synthesis._grid_steps(m, resolution))
    vals = synthesis._abscissae(grid, flat, n)
    best = int(np.argmin(vals))
    best_alpha, best_val = grid[best], float(vals[best])
    evaluations, rows = len(grid), [row.tobytes() for row in grid]

    def objective(z):
        nonlocal evaluations
        az = np.abs(z)
        s = az.sum()
        if s <= 0.0:
            return np.inf
        evaluations += 1
        rows.append((az / s).tobytes())
        return float(synthesis._abscissae((az / s)[None], flat, n)[0])

    res = scipy.optimize.minimize(
        objective, best_alpha + 1e-3, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": maxiter})
    if np.isfinite(res.fun) and res.fun < best_val:
        z = np.abs(res.x)
        best_alpha, best_val = z / z.sum(), float(res.fun)
    return best_alpha, best_val, evaluations, res, set(rows)


@st.composite
def families(draw):
    """Random families, and tie-heavy ones: repeated matrices, commuting
    diagonal families and scalar multiples of one matrix."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "repeated", "diagonal", "scalar"]))
    if kind == "random":
        mats = rng.normal(size=(m, n, n))
    elif kind == "repeated":
        mats = rng.normal(size=(2, n, n))[rng.integers(0, 2, size=m)]
    elif kind == "diagonal":
        mats = np.stack([np.diag(d) for d in rng.integers(-3, 3, size=(m, n))])
    else:
        mats = rng.integers(-3, 4, size=(m, 1, 1)) * rng.normal(size=(n, n))
    steps = draw(st.integers(1, 6 if m <= 3 else 3))
    return list(mats.astype(float)), 1.0 / steps


class TestNelderMead:
    @settings(max_examples=40, deadline=None)
    @given(families())
    def test_equals_scipy(self, family):
        assert_equals_scipy(*family)

    def test_single_matrix_not_refined(self):
        result = find_stable_combination([-np.eye(2)])
        assert result.refinement is None
        assert result.to_dict()["refinement"] is None

    def test_maxiter_reported(self, monkeypatch):
        monkeypatch.setattr(synthesis, "_MAXITER", 5)
        result = find_stable_combination([presets.A1, presets.A2], 0.1)
        assert result.refinement == {"status": "maxiter", "iterations": 5}

    @pytest.mark.parametrize("poison", ["raise", "nan"])
    @pytest.mark.parametrize("seed", range(4))
    def test_unused_trial_points_ignored(self, monkeypatch, poison, seed):
        # the evaluator fails on every point the sequential method would
        # not evaluate; the block evaluation must not notice
        rng = np.random.default_rng(seed)
        m = 2 + seed % 3
        if seed == 3:       # all ties
            matrices = [rng.normal(size=(3, 3))] * m
        else:
            matrices = list(rng.normal(size=(m, 3, 3)))
        want = find_stable_combination(matrices, resolution=0.1)
        used = scipy_refinement(matrices, 0.1)[4]
        evaluate = synthesis._abscissae
        poisoned = 0

        def picky(alphas, flat, n):
            nonlocal poisoned
            bad = np.array([row.tobytes() not in used for row in alphas])
            poisoned += int(bad.sum())
            if bad.any() and poison == "raise":
                raise NumericalError("unused point evaluated")
            vals = evaluate(alphas, flat, n)
            vals[bad] = np.nan
            return vals

        monkeypatch.setattr(synthesis, "_abscissae", picky)
        got = find_stable_combination(matrices, resolution=0.1)
        assert poisoned > 0
        assert np.array_equal(got.weights.alpha, want.weights.alpha)
        assert got.abscissa == want.abscissa
        assert got.evaluations == want.evaluations
        assert got.refinement == want.refinement


def design_family(seed):
    """Three random 3x3 matrices, each unstable, with a mean of abscissa
    below -0.1: the benchmark's design systems."""
    rng = np.random.default_rng(seed)
    while True:
        mats = rng.normal(size=(3, 3, 3))
        if (np.linalg.eigvals(mats).real.max(axis=1).min() > 0.0
                and np.linalg.eigvals(mats.mean(axis=0)).real.max() < -0.1):
            return list(mats)


def assert_equals_scipy(matrices, resolution, maxiter=2000):
    """The refinement equals scipy's run to maxiter; one that stops on a
    cycle at iteration r equals scipy's run to r in every count, and its
    weights and abscissa equal those of scipy's run to maxiter."""
    result = find_stable_combination(matrices, resolution=resolution)
    refinement = result.refinement
    cycled = refinement["status"] == "cycle"
    stop = refinement["iterations"] if cycled else maxiter
    alpha, val, evaluations, res, _ = scipy_refinement(matrices, resolution,
                                                       stop)
    grid_size = len(synthesis._simplex_grid(
        len(matrices), synthesis._grid_steps(len(matrices), resolution)))
    assert np.array_equal(result.weights.alpha, alpha)
    assert result.abscissa == val
    assert result.evaluations == evaluations == grid_size + res.nfev
    assert refinement == {
        "status": "cycle" if cycled else {0: "converged",
                                          2: "maxiter"}[res.status],
        "iterations": res.nit}
    if cycled:
        assert res.status == 2
        alpha, val = scipy_refinement(matrices, resolution, maxiter)[:2]
        assert np.array_equal(result.weights.alpha, alpha)
        assert result.abscissa == val
    return result


# At resolution 0.05 these design families do not converge by iteration
# 2000.  All but 49 reach a sorted state that repeats bit for bit, where
# the refinement stops; 18 first visits the state of iteration 290 again at
# iteration 296 (period 6).
MAXITER_STOPS = {3: ("cycle", 571), 7: ("cycle", 396), 18: ("cycle", 296),
                 43: ("cycle", 366), 49: ("maxiter", 2000),
                 65: ("cycle", 696), 100: ("cycle", 261)}
CYCLE_SEED, CYCLE_START, CYCLE_PERIOD = 18, 290, 6


class TestFastForward:
    """A refinement whose sorted state repeats stops there, with status
    "cycle"."""

    @pytest.mark.parametrize("seed", MAXITER_STOPS)
    def test_maxiter_equals_scipy(self, seed):
        result = assert_equals_scipy(design_family(seed), 0.05)
        status, iterations = MAXITER_STOPS[seed]
        assert result.refinement == {"status": status,
                                     "iterations": iterations}

    @pytest.mark.parametrize("maxiter", [
        *range(CYCLE_START, CYCLE_START + 3 * CYCLE_PERIOD + 1), 331, 997])
    def test_every_maxiter_around_the_cycle(self, monkeypatch, maxiter):
        monkeypatch.setattr(synthesis, "_MAXITER", maxiter)
        result = assert_equals_scipy(design_family(CYCLE_SEED), 0.05, maxiter)
        stop = CYCLE_START + CYCLE_PERIOD
        assert result.refinement == {
            "status": "maxiter" if maxiter < stop else "cycle",
            "iterations": min(maxiter, stop)}

    def test_cycle_is_not_replayed(self, monkeypatch):
        evaluate = synthesis._abscissae
        calls = 0

        def counting(alphas, flat, n):
            nonlocal calls
            calls += 1
            return evaluate(alphas, flat, n)

        monkeypatch.setattr(synthesis, "_abscissae", counting)
        result = find_stable_combination(design_family(CYCLE_SEED), 0.05)
        # one call per iteration, and one per shrink, up to the repeat
        assert result.refinement == {"status": "cycle",
                                     "iterations": CYCLE_START + CYCLE_PERIOD}
        assert calls < 2 * (CYCLE_START + CYCLE_PERIOD)


class TestResolution:
    @pytest.mark.parametrize("resolution", [0.0, -0.1, np.nan, np.inf])
    def test_not_finite_positive_rejected(self, resolution):
        with pytest.raises(ValueError, match="finite and > 0"):
            find_stable_combination([np.eye(2), -np.eye(2)], resolution)

    @pytest.mark.parametrize("m, resolution", [
        (2, 1e-7), (2, 1e-300), (2, 5e-324), (3, 1e-4), (5, 0.01)])
    def test_oversized_grid_refused_before_allocation(self, monkeypatch,
                                                      m, resolution):
        def no_grid(*args):
            raise AssertionError("grid built for a refused resolution")
        monkeypatch.setattr(synthesis, "_simplex_grid", no_grid)
        with pytest.raises(ValueError, match=str(MAX_GRID_ENTRIES)):
            find_stable_combination([-np.eye(2)] * m, resolution)

    def test_cap_boundary(self):
        # m = 4 at 0.01 is 176851 points, m = 5 at 0.01 is 4598126
        assert synthesis._grid_steps(4, 0.01) == 100
        with pytest.raises(ValueError):
            synthesis._grid_steps(5, 0.01)
        # a single matrix is a one-point grid, whatever the resolution
        assert find_stable_combination([-np.eye(2)], 1e-300).found

    @pytest.mark.parametrize("m, steps", [
        (1, 100), (2, 100), (4, 100), (5, 85), (6, 44), (7, 29), (8, 22)])
    def test_fitting_resolution(self, m, steps):
        # the CLI default: 0.01 unless the grid is too large, then the
        # finest 1/steps that fits
        resolution = synthesis._fitting_resolution(m, 0.01)
        assert resolution == 1.0 / steps
        assert synthesis._grid_steps(m, resolution) == steps
        if steps < 100:
            with pytest.raises(ValueError):
                synthesis._grid_steps(m, 1.0 / (steps + 1))


class TestMaxStableEta:
    HALF4 = Weights(np.array([0.5, 0.5]), 4.0)

    def test_benchmark_exceeds_figure_value(self, example1):
        result = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                grid_points=100, refine_tol=1e-4)
        assert result.stable_prefix
        assert result.eta_star >= 1.1

    def test_single_stable_subsystem(self):
        from swstab.model import SubSystem, SwitchedSystem
        sys_ = SwitchedSystem((SubSystem(np.diag([-1.0, -2.0]), np.zeros(2)),))
        result = max_stable_eta(sys_, Weights(np.array([1.0]), 1.0), eta_max=3.0)
        assert result.eta_star == pytest.approx(3.0)

    def test_commuting_with_stable_average(self):
        from swstab.model import SubSystem, SwitchedSystem
        sys_ = SwitchedSystem((
            SubSystem(np.diag([-1.0, -3.0]), np.zeros(2)),
            SubSystem(np.diag([0.5, -0.1]), np.zeros(2))))
        w = Weights(np.array([0.8, 0.2]), 1.0)
        result = max_stable_eta(sys_, w, eta_max=50.0)
        assert result.eta_star == pytest.approx(50.0)
        assert all(rho < 1.0 for _, rho in result.grid)

    def test_unstable_average_rejected(self, example1):
        with pytest.raises(ValueError):
            max_stable_eta(example1, Weights(np.array([1.0, 0.0]), 1.0))

    def test_stable_at_eta_star_and_fractions_preserved(self, example1):
        tol = 1e-3
        result = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                refine_tol=tol)
        eta = result.eta_star * (1.0 - tol)
        sig = from_weights(self.HALF4, eta)
        assert is_ici_stable(example1, sig, eta=eta).is_stable
        np.testing.assert_allclose(activation_fractions(sig).alpha,
                                   self.HALF4.alpha, atol=1e-12)

    def test_grid_refinement_monotone(self, example1):
        tol = 1e-3
        coarse = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                grid_points=40, refine_tol=tol)
        fine = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                              grid_points=80, refine_tol=tol)
        assert fine.eta_star >= coarse.eta_star - tol

    def test_default_eta_max_positive(self, example1):
        assert default_eta_max(example1, self.HALF4) > 0.0

    @pytest.mark.parametrize("option", [
        {"eta_max": -1.0}, {"eta_max": np.nan}, {"eta_max": np.inf},
        {"grid_points": 0}, {"refine_tol": 0.0}, {"refine_tol": -1.0},
        {"refine_tol": np.nan}, {"refine_tol": np.inf}])
    def test_bad_option_refused(self, example1, option):
        with pytest.raises(ValueError, match=next(iter(option))):
            max_stable_eta(example1, self.HALF4, **option)

    def test_tolerance_below_float_spacing_ends(self, example1):
        # the bisection stops once no float lies between its bounds
        fine = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                              grid_points=10, refine_tol=1e-300)
        coarse = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                grid_points=10, refine_tol=1e-3)
        assert abs(fine.eta_star - coarse.eta_star) <= 1e-3
        assert fine.grid == coarse.grid
