import itertools
import math
import re
import struct

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swstab import presets, synthesis
from swstab import linalg
from swstab.linalg import NumericalError, spectral_radius
from swstab.model import SubSystem, SwitchedSystem, Weights
from swstab.signals import activation_fractions, from_weights
from swstab.simulate import MAX_STEPS
from swstab.stability import is_ici_stable, monodromy
from swstab.synthesis import (MAX_GRID_ENTRIES, default_eta_max,
                              find_stable_combination, max_stable_eta)
from conftest import (expm_radius, random_stable_pair, shear_pair,
                      spectral_abscissa)


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

    def test_empty_matrix_refused(self):
        # once "zero-size array to reduction operation maximum" from numpy
        with pytest.raises(linalg.DimensionError,
                           match="nonempty square matrix"):
            find_stable_combination([np.zeros((0, 0))])


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


class TestLeanAbscissae:
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(1, 5), k=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_eigvals(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=(m, n * n))
        alphas = rng.dirichlet(np.ones(m), size=k)
        mats = (alphas[:, None, :] @ flat).reshape(-1, n, n)
        assert np.array_equal(synthesis._abscissae(alphas, flat, n),
                              np.linalg.eigvals(mats).real.max(-1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1e-16, 3e-17, 1.0, 0.5, 1e300])
                    | st.floats(0.0, 1e10), min_size=1, max_size=20))
    def test_weight_sum_is_numpys(self, values):
        # the refinement's sum|z| has the bits of np.sum at every length
        assert synthesis._sum(values) == np.sum(np.array(values))

    @staticmethod
    def failing_lapack(monkeypatch):
        """LAPACK that does not converge on the last matrix it is given,
        which numpy reports as NaN eigenvalues."""
        eigvals = linalg._eigvals

        def failing(M, signature):
            w = eigvals(M, signature=signature)
            w[-1] = np.nan
            return w
        monkeypatch.setattr(linalg, "_eigvals", failing)

    def test_lapack_failure_raises(self, monkeypatch):
        self.failing_lapack(monkeypatch)
        flat = np.random.default_rng(0).normal(size=(2, 9))
        with pytest.raises(NumericalError, match="did not converge"):
            synthesis._abscissae(np.array([[0.5, 0.5], [0.2, 0.8]]), flat, 3)
        # the last eigenvalue is NaN, which Python's max passes over
        with pytest.raises(NumericalError, match="did not converge"):
            synthesis._point_abscissa(flat, 3)([0.5, 0.5])
        with pytest.raises(NumericalError, match="did not converge"):
            find_stable_combination([presets.A1, presets.A2], resolution=0.1)

    def test_beyond_range_is_rescaled(self):
        # the largest entry, finfo.max / 2 = (1 - 2^-53) 2^1023, goes to
        # [0.5, 1) under 2^-1023; 1.0 becomes 2^-1023, a subnormal, exactly
        big = np.finfo(float).max / 2
        matrices = [np.array([[-big, 1.0], [0.0, -1.0]]),
                    np.array([[1.0, 0.0], [big, -big]])]
        scaled = [np.ldexp(M, -1023) for M in matrices]
        result = find_stable_combination(matrices, resolution=0.25)
        want = find_stable_combination(scaled, resolution=0.25).to_dict()
        mix = sum(a * M for a, M in zip(result.weights.alpha, scaled))
        assert result.abscissa == np.ldexp(spectral_abscissa(mix), 1023)
        assert result.to_dict() == {**want, "abscissa": np.ldexp(
            want["abscissa"], 1023)}


def full_scan(grid, flat, n):
    """The scan without the bound: every row to _abscissae, BLOCK_ROWS at
    a time, and np.argmin's first minimum.  The pruned scan's reference."""
    vals = np.concatenate([
        synthesis._abscissae(grid[k:k + synthesis.BLOCK_ROWS], flat, n)
        for k in range(0, len(grid), synthesis.BLOCK_ROWS)])
    best = int(np.argmin(vals))
    return best, float(vals[best])


def bits(value):
    """A float's bytes: equal bits, 0.0 and -0.0 apart."""
    return np.float64(value).tobytes()


def search_shift(flat):
    """The power of two, as an exponent, by which find_stable_combination
    scales a family: 0 where its largest entry is 0 or lies in
    _SCALE_RANGE, else the one that brings that entry into [0.5, 1)."""
    low, high = synthesis._SCALE_RANGE
    top = float(np.abs(flat).max())
    return 0 if top == 0.0 or low <= top <= high else -math.frexp(top)[1]


def pruning_bound(flat, n):
    """_abscissa_bound where the family's largest entry lies in
    _SCALE_RANGE or is 0, as find_stable_combination gives it to the
    scan, and None elsewhere."""
    if search_shift(flat) != 0:
        return None
    return synthesis._abscissa_bound(flat, n)


def no_bound(alphas):
    """A bound that rules out nothing: every row's is -inf."""
    return np.full(len(alphas), -np.inf)


def pruned_scan(grid, flat, n, evaluate=None):
    """_scan with the bound find_stable_combination gives it, on
    evaluate(alphas, flat, n), by default the lean _abscissae; a family
    outside the bound's range is scanned with no_bound, unpruned."""
    evaluate = evaluate or synthesis._abscissae
    return synthesis._scan(grid, lambda alphas: evaluate(alphas, flat, n),
                           pruning_bound(flat, n) or no_bound)


# scales 10^k: the bound prunes for |k| up to about 120; beyond, the
# family is scanned unpruned here (find_stable_combination rescales it)
SCALES = st.integers(-125, 125) | st.sampled_from([-3, 0, 3])


@st.composite
def stacks(draw):
    """(flat, n) for random families and adversarial ones: repeated
    matrices, multiples of I (T = 0), commuting diagonal, nilpotent and
    triangular families, and families whose abscissa is a dominant
    complex pair; m and n from 1 to 5, at scales far from 1."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "repeated", "identity",
                                 "diagonal", "nilpotent", "triangular",
                                 "complex"]))
    if kind == "random":
        mats = rng.normal(size=(m, n, n))
    elif kind == "repeated":
        mats = np.repeat(rng.normal(size=(1, n, n)), m, axis=0)
    elif kind == "identity":
        mats = rng.normal(size=(m, 1, 1)) * np.eye(n)
    elif kind == "diagonal":
        mats = np.stack([np.diag(d) for d in rng.normal(size=(m, n))])
    elif kind == "nilpotent":
        mats = np.triu(rng.normal(size=(m, n, n)), 1)
    elif kind == "triangular":
        mats = np.triu(rng.normal(size=(m, n, n)))
    else:
        mats = 0.1 * rng.normal(size=(m, n, n)) - np.eye(n)
        for A, (a, b) in zip(mats, rng.normal(size=(m, 2))):
            A[:2, :2] += np.array([[a, 10.0 * b], [-10.0 * b, a]])[:n, :n]
    scale = 10.0 ** draw(SCALES)
    return (mats * scale).reshape(m, n * n), n


def zero_tie_families():
    """(flat, n) for families whose abscissa at equal weights is a signed
    zero: a diagonal family with a zero eigenvalue; two copies of a matrix
    at scale 1e-300 where LAPACK returns -0.0; and that matrix bordered by
    a zero row and column, where the real parts end in -0.0, 0.0, a tie
    that Python's max and numpy's break apart."""
    B = 1e-300 * np.array([[-2.0, -1.0, 1.0], [1.0, -1.0, 1.0],
                           [-1.0, 1.0, -1.0]])
    bordered = np.zeros((4, 4))
    bordered[:3, :3] = B
    diagonal = np.stack([np.diag([0.0, -1.0, -2.0]),
                         np.diag([0.0, -2.0, -1.0])])
    return {"0.0 diagonal": (diagonal.reshape(2, 9), 3),
            "-0.0": (np.stack([B, B]).reshape(2, 9), 3),
            "-0.0 before 0.0": (np.stack([bordered, bordered]).reshape(2, 16),
                                4)}


ZERO_TIE_FAMILIES = zero_tie_families()


class TestPrunedScan:
    """The scan skips the grid points whose lower bound on the abscissa
    exceeds a value already found, and still finds the full scan's first
    minimum, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.data())
    def test_equals_full_scan(self, stack, data):
        # for m > 1 the largest steps, and the ones sampled_from adds, give
        # grids of more than one block
        flat, n = stack
        m = len(flat)
        steps = data.draw(st.integers(1, {1: 1, 2: 400, 3: 30, 4: 12,
                                          5: 8}[m]) | st.sampled_from(
            {1: [1], 2: [300], 3: [25], 4: [11], 5: [7, 8]}[m]))
        grid = synthesis._simplex_grid(m, steps)
        with np.errstate(invalid="ignore"):
            want = full_scan(grid, flat, n)
            got = pruned_scan(grid, flat, n)
        assert (got[0], bits(got[1])) == (want[0], bits(want[1]))

    @pytest.mark.parametrize("m, steps", [(2, 512), (3, 32), (4, 16), (5, 8)])
    def test_all_ties_give_index_0(self, m, steps):
        # weights k / 2^j times small integers sum exactly: every grid
        # point is the one matrix, so all values tie and the first wins
        A = np.random.default_rng(m).integers(-4, 5, size=(4, 4))
        flat = np.repeat(A.reshape(1, 16).astype(float), m, axis=0)
        grid = synthesis._simplex_grid(m, steps)
        with np.errstate(invalid="ignore"):
            assert (synthesis._combinations(grid, flat, 4) == A).all()
            got = pruned_scan(grid, flat, 4)
            assert got == full_scan(grid, flat, 4)
        assert got == (0, spectral_abscissa(A.astype(float)))

    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_bound_below_eigvals(self, stack, k, seed):
        flat, n = stack
        m = len(flat)
        bound = pruning_bound(flat, n)
        if bound is None:
            return
        rng = np.random.default_rng(seed)
        alphas = np.vstack([np.eye(m), rng.dirichlet(np.ones(m), size=k)])
        mats = synthesis._combinations(alphas, flat, n)
        assert (bound(alphas) <= np.linalg.eigvals(mats).real.max(-1)).all()

    def test_prunes_a_design_family(self):
        # every A_i unstable and the mean Hurwitz: most of the lattice lies
        # far above the minimum
        flat = np.stack(design_family(0)).reshape(3, 9)
        grid = synthesis._simplex_grid(3, 100)
        rows = []

        def evaluate(alphas, flat, n):
            rows.extend(map(bytes, alphas))
            return synthesis._abscissae(alphas, flat, n)
        with np.errstate(invalid="ignore"):
            got = pruned_scan(grid, flat, 3, evaluate)
            assert got == full_scan(grid, flat, 3)
        assert len(set(rows)) == len(rows) < len(grid) // 2

    @pytest.mark.parametrize("steps", [100, 600])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    @pytest.mark.parametrize("bound", [None, lambda alphas: -alphas[:, 0],
                                       lambda alphas: alphas[:, 0] - 1.0])
    def test_signed_zero_ties(self, steps, first, bound):
        # values 0.0 and -0.0 tie; the first row wins with its own sign,
        # in one block or several, with bounds that rule out nothing (None:
        # all -inf, so argsort orders the rows) or either order of the
        # (valid) bounds
        def evaluate(alphas):
            return np.where(alphas[:, 0] > 0.5, first, -first)
        grid = synthesis._simplex_grid(2, steps)
        got = synthesis._scan(grid, evaluate, bound or no_bound)
        assert (got[0], bits(got[1])) == (0, bits(first))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_skips_nothing(self, value):
        # the rows of odd k in (1 - k/600, k/600) get a non-finite bound,
        # the others one above every value: only the former must reach
        # LAPACK, and all of them do
        def odd(alphas):
            return np.rint(alphas[:, 1] * 600) % 2 == 1

        def bound(alphas):
            return np.where(odd(alphas), value, 1e300)

        rows = []

        def evaluate(alphas):
            rows.extend(map(bytes, alphas))
            return synthesis._abscissae(alphas, flat, 3)
        flat = np.random.default_rng(3).normal(size=(2, 9))
        grid = synthesis._simplex_grid(2, 600)
        with np.errstate(invalid="ignore"):
            synthesis._scan(grid, evaluate, bound)
        assert set(map(bytes, grid[odd(grid)])) == set(rows)

    @pytest.mark.parametrize("scale, as_given", [
        (1e-125, False), (1e-118, True), (1.0, True), (1e118, True),
        (1e125, False), (1e300, False)])
    def test_bound_sees_family_in_range(self, monkeypatch, scale,
                                        as_given):
        # the bound sees every family with its largest entry in
        # _SCALE_RANGE (beyond it a square could overflow, below it a
        # product could underflow): as given where it lies there, else as
        # the search scales it into [0.5, 1), once, by a power of two
        flat = np.random.default_rng(5).normal(size=(3, 9)) * scale
        bound, seen = synthesis._abscissa_bound, []

        def recording(flat, n):
            seen.append(flat)
            return bound(flat, n)
        monkeypatch.setattr(synthesis, "_abscissa_bound", recording)
        find_stable_combination(list(flat.reshape(3, 3, 3)), 0.25)
        [got] = seen
        assert np.array_equal(got, flat) == as_given
        assert np.array_equal(got, np.ldexp(flat, search_shift(flat)))
        low, high = synthesis._SCALE_RANGE
        assert low <= np.abs(got).max() <= high

    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.integers(0, 2**32 - 1))
    @example(stack=ZERO_TIE_FAMILIES["0.0 diagonal"], seed=0)
    @example(stack=ZERO_TIE_FAMILIES["-0.0"], seed=0)
    @example(stack=ZERO_TIE_FAMILIES["-0.0 before 0.0"], seed=0)
    def test_one_point_equals_block(self, stack, seed):
        # the refinement's one-point evaluator, on the objective's weights,
        # has _abscissae's bits, sign of zero included
        flat, n = stack
        m = len(flat)
        abscissa = synthesis._point_abscissa(flat, n)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(50, m)) * 10.0 ** rng.uniform(-3, 3, size=(50, 1))
        z[rng.random(size=(50, m)) < 0.2] = 0.0
        with np.errstate(invalid="ignore"):
            for row in np.abs(z):
                az = row.tolist()
                s = synthesis._sum(az)
                if s <= 0.0:
                    continue
                w = [a / s for a in az]
                assert np.array(w).tobytes() == (np.array(az) / s).tobytes()
                assert (bits(abscissa(w)) == synthesis._abscissae(
                    np.array(w)[None], flat, n)[0].tobytes())

    @pytest.mark.parametrize("family", ZERO_TIE_FAMILIES)
    def test_zero_tie_families(self, family):
        # the examples above: at equal weights the abscissa is a signed
        # zero, and in the last Python's max would keep -0.0 where numpy
        # keeps 0.0
        flat, n = ZERO_TIE_FAMILIES[family]
        w = np.full((1, len(flat)), 1.0 / len(flat))
        mats = synthesis._combinations(w, flat, n)
        reals = np.linalg.eigvals(mats)[0].real.tolist()
        value = synthesis._abscissae(w, flat, n)[0]
        assert bits(value) == bits(-0.0 if family == "-0.0" else 0.0)
        assert bits(max(reals)) == bits(
            -0.0 if family != "0.0 diagonal" else 0.0)

    VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                              2.5]) | st.floats(allow_nan=False)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(VALUES, min_size=2, max_size=9), VALUES)
    def test_insertion_equals_argsort(self, values, new):
        # replacing the worst vertex gives np.argsort's order and repeat
        # key, by bisect where no value ties and by np.argsort where one
        # does; vertex i is the point [i]
        pack = struct.Struct("2d").pack
        sim, fsim, keys = synthesis._argsorted(
            [[float(i)] for i in range(len(values))], values,
            [pack(i, v) for i, v in enumerate(values)])
        x, key = [-1.0], pack(-1.0, new)
        want = synthesis._argsorted(sim[:-1] + [x], fsim[:-1] + [new],
                                    keys[:-1] + [key])
        got = synthesis._replace_worst(list(sim), list(fsim), list(keys),
                                       x, new, key)
        assert got[0] == want[0]
        assert list(map(bits, got[1])) == list(map(bits, want[1]))
        assert tuple(got[2]) == tuple(want[2])


def one_row_objective(flat, n, rows, points):
    """The refinement's objective as one-row _abscissae calls: the
    abscissa at |z| / sum|z|, +inf where sum|z| is 0.  Appends the bytes of
    every z to points and of each weight row it evaluates to rows."""
    def objective(z):
        points.append(np.asarray(z, dtype=float).tobytes())
        az = np.abs(z)
        s = az.sum()
        if s <= 0.0:
            return np.inf
        rows.append((az / s).tobytes())
        return float(synthesis._abscissae((az / s)[None], flat, n)[0])
    return objective


def scipy_nelder_mead(flat, n, x0, maxiter=2000, points=None):
    """scipy's Nelder-Mead from x0 on the one-row objective.  Returns
    scipy's result and the weight rows the objective evaluated, in order:
    one per counted evaluation; every point goes to points if given."""
    rows = []
    res = scipy.optimize.minimize(
        one_row_objective(flat, n, rows, [] if points is None else points),
        x0, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": maxiter})
    return res, rows


def scipy_refinement(matrices, resolution, maxiter=2000):
    """The grid scan, then scipy's Nelder-Mead on the one-row objective:
    the oracle the in-house loop must reproduce.  Returns the weights, the
    abscissa, the counted evaluations, scipy's result and the weight rows
    its objective evaluated, in order."""
    m, n = len(matrices), len(matrices[0])
    flat = np.stack(matrices).reshape(m, n * n)
    grid = synthesis._simplex_grid(m, synthesis._grid_steps(m, resolution))
    vals = synthesis._abscissae(grid, flat, n)
    best = int(np.argmin(vals))
    best_alpha, best_val = grid[best], float(vals[best])
    res, rows = scipy_nelder_mead(flat, n, best_alpha + 1e-3, maxiter)
    if np.isfinite(res.fun) and res.fun < best_val:
        z = np.abs(res.x)
        best_alpha, best_val = z / z.sum(), float(res.fun)
    return best_alpha, best_val, len(grid) + len(rows), res, rows


def evaluated_rows(call):
    """call(), recording what goes to LAPACK: returns call's result, one
    list of row bytes per synthesis._abscissae call (the scan's blocks) and
    the bytes of each single matrix that linalg.finite_spectrum gets (one
    per point the refinement evaluates)."""
    evaluate, spectrum = synthesis._abscissae, linalg.finite_spectrum
    calls, points = [], []

    def recording(alphas, flat, n):
        calls.append([row.tobytes() for row in alphas])
        return evaluate(alphas, flat, n)

    def recording_spectrum(M):
        if M.ndim == 2:
            points.append(M.tobytes())
        return spectrum(M)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_abscissae", recording)
        patch.setattr(linalg, "finite_spectrum", recording_spectrum)
        return call(), calls, points


def assert_scan_rows(calls, grid):
    """The scan sends grid rows to LAPACK, none twice; the bound skips the
    rest."""
    scanned = [row for rows in calls for row in rows]
    assert len(set(scanned)) == len(scanned) <= len(grid)
    assert set(scanned) <= {row.tobytes() for row in grid}


def point_matrices(rows, matrices):
    """The matrix _abscissae forms for each weight row, as bytes."""
    m, n = len(matrices), len(matrices[0])
    flat = np.stack(matrices).reshape(m, n * n)
    return [synthesis._combinations(np.frombuffer(row)[None], flat,
                                    n)[0].tobytes() for row in rows]


@st.composite
def families(draw):
    """Random families, and tie-heavy ones: repeated matrices, commuting
    diagonal families and scalar multiples of one matrix."""
    # m >= 8 weights are normalised with numpy's pairwise sum
    m, n = draw(st.integers(2, 9)), draw(st.integers(1, 4))
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
    steps = draw(st.integers(1, 6 if m <= 3 else 3 if m <= 5 else 2))
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

    # three families drawn in turn from default_rng(4), (m, n) = (2, 2),
    # (3, 3) and (4, 2); from 0 they converge at these iterations
    @pytest.mark.parametrize("k, iterations", enumerate([79, 194, 274]))
    def test_zero_start_equals_scipy(self, k, iterations):
        # x0 = 0 has sum|z| = 0: its value is +inf, and only scipy's nfev
        # counts it
        rng = np.random.default_rng(4)
        mats = [rng.normal(size=(m, n, n))
                for m, n in [(2, 2), (3, 3), (4, 2)]][k]
        m, n = mats.shape[:2]
        flat = mats.reshape(m, n * n)
        evaluated, points = [], []
        x, value, nit, status = synthesis._nelder_mead(
            one_row_objective(flat, n, evaluated, points), np.zeros(m))
        scipy_points = []
        res, rows = scipy_nelder_mead(flat, n, np.zeros(m),
                                      points=scipy_points)
        assert np.array_equal(x, res.x)
        assert value == res.fun
        assert (nit, status) == (res.nit, {0: "converged",
                                            2: "maxiter"}[res.status])
        assert nit == iterations
        # the same points in the same order, x0 = 0 among them
        assert points == scipy_points and len(points) == res.nfev
        assert evaluated == rows and len(rows) == res.nfev - 1


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
    """The refinement equals scipy's run to maxiter, and evaluates the same
    points in the same order, one LAPACK call on one matrix each; one that
    stops on a cycle at iteration r equals scipy's run to r in every
    count, and its weights and abscissa equal those of scipy's run to
    maxiter.  The pruned scan's best point is the full scan's."""
    result, calls, points = evaluated_rows(
        lambda: find_stable_combination(matrices, resolution=resolution))
    refinement = result.refinement
    cycled = refinement["status"] == "cycle"
    stop = refinement["iterations"] if cycled else maxiter
    alpha, val, evaluations, res, rows = scipy_refinement(matrices,
                                                          resolution, stop)
    grid = synthesis._simplex_grid(
        len(matrices), synthesis._grid_steps(len(matrices), resolution))
    grid_size = len(grid)
    # the scan's blocks, then one call per point the refinement evaluates,
    # on the matrix _abscissae forms, in the order scipy's objective
    # evaluates them
    assert_scan_rows(calls, grid)
    assert points == point_matrices(rows, matrices)
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

    def test_cycle_is_not_replayed(self):
        result, calls, points = evaluated_rows(
            lambda: find_stable_combination(design_family(CYCLE_SEED), 0.05))
        assert result.refinement == {"status": "cycle",
                                     "iterations": CYCLE_START + CYCLE_PERIOD}
        # the scan, then one single-matrix call per counted point up to the
        # repeat
        grid = synthesis._simplex_grid(3, 20)
        assert_scan_rows(calls, grid)
        assert len(points) == result.evaluations - len(grid)


def lean_unpruned(matrices, resolution):
    """find_stable_combination's report computed with the lean evaluators
    and no pruning, on the family as given: every grid row to _abscissae,
    and each refinement point to _point_abscissa's evaluator."""
    m, n = len(matrices), len(matrices[0])
    flat = np.stack(matrices).reshape(m, n * n)
    grid = synthesis._simplex_grid(m, synthesis._grid_steps(m, resolution))
    evaluations = len(grid)
    abscissa = synthesis._point_abscissa(flat, n)

    def objective(z):
        nonlocal evaluations
        az = np.abs(z)
        s = az.sum()
        if not 0.0 < s < np.inf:
            return np.inf
        evaluations += 1
        return abscissa((az / s).tolist())
    with np.errstate(invalid="ignore"):
        best, val = full_scan(grid, flat, n)
        alpha = grid[best]
        x, fval, iterations, status = synthesis._nelder_mead(objective,
                                                             alpha + 1e-3)
    if fval < val:
        z = np.abs(x)
        alpha, val = z / z.sum(), float(fval)
    return {"alpha": alpha.tolist(), "period": 1.0, "abscissa": val,
            "found": val < 0.0, "evaluations": evaluations,
            "refinement": {"status": status, "iterations": iterations}}


def max_float_family():
    """Three Hurwitz matrices -max I, two with a 1 off the diagonal, max
    the largest float: every convex combination of them overflows."""
    big = np.finfo(float).max
    return [-big * np.eye(2), np.array([[-big, 1.0], [0.0, -big]]),
            np.array([[-big, 0.0], [1.0, -big]])]


@st.composite
def unit_families(draw):
    """(matrices, resolution, k): a family from stacks() whose largest
    entry lies in [0.5, 1), and a power of two 2^k that takes that entry
    outside _SCALE_RANGE and leaves every nonzero entry a normal float."""
    flat, n = draw(stacks())
    top = np.abs(flat).max()
    assume(top > 0.0)
    flat = np.ldexp(flat, -math.frexp(top)[1])
    nonzero = np.abs(flat[flat != 0.0])
    assume(nonzero.min() >= np.finfo(float).tiny)
    # least nonzero entry e >= 2^(j - 1), with j its frexp exponent: 2^k e
    # is normal, at least 2^-1022, for k >= -1021 - j
    least = -1021 - math.frexp(nonzero.min())[1]
    ks = st.integers(402, 1023)
    if least <= -401:
        ks |= st.integers(least, -401)
    k = draw(ks)
    steps = draw(st.integers(1, {1: 1, 2: 12, 3: 5, 4: 3, 5: 2}[len(flat)]))
    return list(flat.reshape(-1, n, n)), 1.0 / steps, k


class TestScaleRange:
    """find_stable_combination judges the family's scale by _scaled, the
    rule max_stable_eta shares: a family whose largest entry lies outside
    [2^-400, 2^400] (and is not 0) is searched scaled into [0.5, 1) by a
    power of two, with the lean evaluators and the bound, as every other
    family is."""

    # largest |entry| of the family; 0 is the zero family.  up: the power
    # of two is at least 1 (the family is left or scaled up), so no bit of
    # the family is lost
    @pytest.mark.parametrize("scale, up", [
        (2.0 ** 401, False), (np.finfo(float).max / 8, False),
        (1e125, False), (0.0, True), (1e-125, True)])
    def test_equals_lean_unpruned(self, monkeypatch, scale, up):
        # the report of the family as the search scales it, with the
        # abscissa scaled back; never the checked linalg.spectrum
        mats = np.stack(design_family(0))
        matrices = mats / np.abs(mats).max() * scale
        shift = search_shift(matrices)
        assert (shift >= 0) == up
        scaled = np.ldexp(matrices, shift)
        if up:
            assert np.array_equal(np.ldexp(scaled, -shift), matrices)
        want = lean_unpruned(list(scaled), 0.05)
        want["abscissa"] = float(np.ldexp(want["abscissa"], -shift))
        monkeypatch.setattr(linalg, "spectrum", None)
        got = find_stable_combination(list(matrices), 0.05).to_dict()
        assert repr(got) == repr(want)

    @settings(max_examples=150, deadline=None)
    @given(unit_families())
    def test_power_of_two_equivariant(self, family):
        # the scaled family's report is the family's, bit for bit, with
        # the abscissa times 2^k
        matrices, resolution, k = family
        want = find_stable_combination(matrices, resolution).to_dict()
        got = find_stable_combination([np.ldexp(M, k) for M in matrices],
                                      resolution).to_dict()
        assert bits(got.pop("abscissa")) == bits(
            np.ldexp(want.pop("abscissa"), k))
        assert repr(got) == repr(want)

    def test_max_float_family_found(self):
        # every combination overflows; scaled by 2^-1024 none does.  The
        # abscissa of each exact combination is at most -max, so it scales
        # back to -max or beyond, -inf
        result = find_stable_combination(max_float_family())
        assert result.found
        assert result.abscissa <= -np.finfo(float).max

    def test_rounding_scale_is_numerical_error(self):
        # eigenvalues -0.5 +- 1: unstable, as LAPACK finds.  Scaled by
        # 2^-665, 1e-200 would round to 0 and leave a stable triangular
        # matrix, so the search refuses the family rather than report a
        # verdict on another one
        M = np.array([[-0.5, 1e200], [1e-200, -0.5]])
        assert spectral_abscissa(M) == pytest.approx(0.5)
        with pytest.raises(NumericalError, match="rounds an entry"):
            find_stable_combination([M])
        with pytest.raises(NumericalError, match=r"2\^-665"):
            find_stable_combination([M, -np.eye(2)], 0.5)

    def test_point_without_weights_not_counted(self, monkeypatch):
        # sum|z| = 0 or overflowing: +inf, with no LAPACK call and no count
        matrices = [presets.A1, presets.A2]
        want = find_stable_combination(matrices, 0.1).to_dict()
        nelder_mead, values = synthesis._nelder_mead, []

        def probing(f, x0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "finite_spectrum", None)
                patch.setattr(linalg, "spectrum", None)
                values.extend(f(z) for z in ([0.0, -0.0], [1e308, 1e308],
                                             [-np.inf, 1.0]))
            return nelder_mead(f, x0)
        monkeypatch.setattr(synthesis, "_nelder_mead", probing)
        assert find_stable_combination(matrices, 0.1).to_dict() == want
        assert values == [np.inf] * 3


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

    def test_no_resolution_is_the_default(self):
        matrices = [presets.A1, presets.A2]
        assert synthesis.DEFAULT_RESOLUTION == 0.01
        assert (find_stable_combination(matrices).to_dict()
                == find_stable_combination(matrices, resolution=0.01).to_dict())

    @pytest.mark.parametrize("m, steps", [
        (1, 100), (2, 100), (4, 100), (5, 85), (6, 44), (7, 29), (8, 22)])
    def test_fitting_resolution(self, m, steps):
        # the default: 0.01 unless the grid is too large, then the finest
        # 1/steps that fits
        resolution = synthesis.default_resolution(m)
        assert resolution == 1.0 / steps
        assert synthesis._grid_steps(m, resolution) == steps
        if steps < 100:
            with pytest.raises(ValueError):
                synthesis._grid_steps(m, 1.0 / (steps + 1))


def shear_system(K):
    """shear_pair(K) as a linear switched system, and its matrices."""
    mats = shear_pair(K)
    return SwitchedSystem(tuple(SubSystem(A, np.zeros(2)) for A in mats)), mats


class TestMaxStableEta:
    HALF4 = Weights(np.array([0.5, 0.5]), 4.0)
    HALF1 = Weights(np.array([0.5, 0.5]), 1.0)

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
        # both brackets hold the one crossing, each ending within tol * hi
        tol = 1e-3
        coarse = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                grid_points=40, refine_tol=tol)
        fine = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                              grid_points=80, refine_tol=tol)
        assert fine.eta_star >= coarse.eta_star * (1.0 - tol)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), k=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_grid_radii_equal_per_eta(self, n, m, k, seed):
        # one stacked exponential and eigenvalue call give the radii of one
        # monodromy each, for the whole grid and for the bisection's one eta
        # at a time; etas up to 1e3 overflow some of them
        rng = np.random.default_rng(seed)
        subs = tuple(SubSystem(rng.normal(size=(n, n)), rng.normal(size=n))
                     for _ in range(m))
        sys_ = SwitchedSystem(subs)
        alpha = rng.dirichlet(np.ones(m))
        alpha[rng.random(m) < 0.3] = 0.0
        if not alpha.any():
            alpha[0] = 1.0
        w = Weights(alpha / alpha.sum(), 1.0)
        etas = sorted((10.0 ** rng.uniform(-3.0, 3.0, size=k)).tolist())
        want = []
        for eta in etas:
            Phi = monodromy(sys_, from_weights(w, eta))
            want.append(spectral_radius(Phi) if np.isfinite(Phi).all()
                        else np.inf)
        assert synthesis._grid_radii(sys_, w, etas) == want
        assert [synthesis._grid_radii(sys_, w, [eta])[0]
                for eta in etas] == want

    def test_grid_of_several_blocks_equals_per_eta(self, example1):
        points = synthesis.BLOCK_ROWS + 7
        result = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                grid_points=points)
        assert len(result.grid) == points
        for eta, rho in result.grid:
            Phi = monodromy(example1, from_weights(self.HALF4, eta))
            assert rho == spectral_radius(Phi)

    def test_default_eta_max_positive(self, example1):
        assert default_eta_max(example1, self.HALF4) > 0.0

    @pytest.mark.parametrize("option", [
        {"eta_max": -1.0}, {"eta_max": np.nan}, {"eta_max": np.inf},
        {"grid_points": 0}, {"refine_tol": 0.0}, {"refine_tol": -1.0},
        {"refine_tol": np.nan}, {"refine_tol": np.inf}, {"refine_tol": 1.0},
        {"refine_tol": 1e-300}, {"refine_tol": 2.0 ** -51}])
    def test_bad_option_refused(self, example1, option):
        with pytest.raises(ValueError, match=next(iter(option))):
            max_stable_eta(example1, self.HALF4, **option)

    def test_grid_points_capped_at_max_steps(self, example1, monkeypatch):
        # refused before the grid is allocated or any monodromy computed
        def no_monodromy(*args):
            raise AssertionError("monodromy computed for a refused grid")
        monkeypatch.setattr(synthesis, "poincare_maps", no_monodromy)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            max_stable_eta(example1, self.HALF4, grid_points=MAX_STEPS + 1)
        synthesis.check_eta_search(None, MAX_STEPS, 1e-3)

    def test_overflowing_monodromy_is_unstable(self):
        # the default grid runs into eta where Phi overflows; those points
        # are unstable, recorded as inf, instead of failing the search
        sys_, mats = shear_system(300.0)
        result = max_stable_eta(sys_, self.HALF1)
        radii = [r for _, r in result.grid]
        assert np.isinf(radii).any() and not np.isnan(radii).any()
        assert result.eta_star > 0.0
        assert expm_radius(mats, self.HALF1.alpha, 1.0, result.eta_star) < 1.0

    @pytest.mark.parametrize("eta_max", [0.02, 0.025, 0.03])
    def test_unstable_first_grid_point_finds_stable_eta(self, eta_max):
        # rho > 1 already at eta_max / 50; the bracket (0, eta_max / 50] is
        # narrower than refine_tol, yet the bisection goes on to a stable eta
        sys_, mats = shear_system(30000.0)
        result = max_stable_eta(sys_, self.HALF1, eta_max=eta_max)
        assert result.grid[0][1] >= 1.0 and not result.stable_prefix
        assert result.eta_star > 0.0
        assert expm_radius(mats, self.HALF1.alpha, 1.0, result.eta_star) < 1.0

    @pytest.mark.parametrize("eta_max", [1e-15, 1e-200])
    def test_no_stable_eta_before_underflow_is_numerical_error(self,
                                                               eta_max):
        # rho rounds to 1 at every eta of the grid, so the bisection halves
        # toward 0; it stops at the last normal eta, in [2^-1022, 2^-1021)
        sys_ = SwitchedSystem((
            SubSystem(np.diag([-1.0, -2.0]), np.array([1.0, 0.0])),
            SubSystem(np.array([[-3.0, 1.0], [0.0, -1.0]]), np.zeros(2))))
        w = Weights(np.array([2.0, 1.0]) / 3.0, 1.0)
        with pytest.raises(NumericalError, match=r"rho\(Phi\) did not fall "
                           r"below 1 .* eta = ([0-9.e-]+),") as info:
            max_stable_eta(sys_, w, eta_max=eta_max)
        hi = float(re.search(r"eta = ([0-9.e-]+),", str(info.value))[1])
        assert 2.0 ** -1022 <= hi < 2.0 ** -1021

    def test_tolerance_at_floor_ends(self, example1):
        # at the least refine_tol the width is reached with floats to spare
        fine = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                              grid_points=10, refine_tol=2.0 ** -50)
        coarse = max_stable_eta(example1, self.HALF4, eta_max=5.0,
                                grid_points=10, refine_tol=1e-3)
        assert 0.0 < coarse.eta_star <= fine.eta_star
        assert fine.eta_star - coarse.eta_star <= 1e-3 * fine.eta_star
        assert fine.grid == coarse.grid


@st.composite
def stable_systems(draw):
    """(system, weights): a random affine family, n and m 2 or 3, shifted
    by a multiple of I so that its average at random weights has abscissa
    -0.1 or so.  On about half of them rho(Phi) reaches 1 below eta = 100
    (with n or m 1 it never does)."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.dirichlet(np.ones(m))
    mats = rng.normal(size=(m, n, n))
    shift = spectral_abscissa(np.tensordot(alpha, mats, axes=1)) + 0.1
    subs = tuple(SubSystem(A - shift * np.eye(n), rng.normal(size=n))
                 for A in mats)
    return SwitchedSystem(subs), Weights(alpha)


def scaled_system(sys_, k):
    """2^k (A_i, b_i) for every subsystem."""
    return SwitchedSystem(tuple(SubSystem(np.ldexp(sub.A, k),
                                          np.ldexp(sub.b, k))
                                for sub in sys_.subsystems))


class TestEtaScale:
    """max_stable_eta judges scale and stability as the simplex search
    does, and its relative stopping rule commutes with a power of two."""

    @settings(max_examples=60, deadline=None)
    @given(stable_systems(), st.integers(-60, 60),
           st.floats(1.0, 100.0), st.integers(1, 20))
    def test_power_of_two_equivariant(self, system, k, eta_max, points):
        # Phi of 2^k (A, b) at eta / 2^k is Phi at eta, bit for bit, and
        # hi - lo <= tol * hi holds for both brackets or neither
        sys_, w = system
        want = max_stable_eta(sys_, w, eta_max=eta_max, grid_points=points)
        got = max_stable_eta(scaled_system(sys_, k), w,
                             eta_max=math.ldexp(eta_max, -k),
                             grid_points=points)
        assert bits(got.eta_star) == bits(math.ldexp(want.eta_star, -k))
        assert [(bits(e), r) for e, r in got.grid] == [
            (bits(math.ldexp(e, -k)), r) for e, r in want.grid]
        assert got.stable_prefix == want.stable_prefix
        # the default eta_max, 10 / ||A_avg||_2, need not scale bit for bit
        want = max_stable_eta(sys_, w).eta_star
        got = math.ldexp(max_stable_eta(scaled_system(sys_, k), w).eta_star,
                         k)
        assert abs(got - want) <= synthesis.DEFAULT_REFINE_TOL * max(got,
                                                                     want)

    def test_max_float_family_scaled_back(self):
        # searched as 2^-1024 (A_i, b_i), which lies in the range: eta_star
        # and the grid are that family's times 2^-1024
        mats = max_float_family()
        sys_ = SwitchedSystem(tuple(SubSystem(A, np.zeros(2)) for A in mats))
        w = find_stable_combination(mats).weights
        scaled = max_stable_eta(scaled_system(sys_, -1024), w)
        result = max_stable_eta(sys_, w)
        assert result.eta_star == math.ldexp(scaled.eta_star, -1024) > 0.0
        assert result.grid == tuple((math.ldexp(e, -1024), r)
                                    for e, r in scaled.grid)

    def test_rounding_drift_is_numerical_error(self):
        # the A_i set the power of two, 2^-997; b = 1e-300 would round
        sys_ = SwitchedSystem((SubSystem(-1e300 * np.eye(1), [1e-300]),))
        with pytest.raises(NumericalError, match=r"eta search.*2\^-997.*"
                           "rounds an entry"):
            max_stable_eta(sys_, Weights(np.array([1.0])))

    @pytest.mark.parametrize("eta_max", [1e10, 1e-310])
    def test_eta_max_out_of_scale_is_numerical_error(self, eta_max):
        # 1e10 * 2^1024 overflows; 1e-310 / 50 is subnormal
        big = np.finfo(float).max
        sys_ = SwitchedSystem((SubSystem(-big * np.eye(1), [0.0]),))
        small = SwitchedSystem((SubSystem(-np.eye(1), [0.0]),))
        with pytest.raises(NumericalError, match="eta search cannot use"):
            max_stable_eta(sys_ if eta_max > 1.0 else small,
                           Weights(np.array([1.0])), eta_max=eta_max)


def near_zero_families(count):
    """The first count draws of default_rng(5), three 3x3 standard normal
    matrices each, shifted three times by their reported abscissa times I:
    families whose least abscissa is 0 to within rounding."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        mats = [rng.normal(size=(3, 3)) for _ in range(3)]
        for _ in range(3):
            shift = find_stable_combination(mats, 0.05).abscissa
            mats = [A - shift * np.eye(3) for A in mats]
        yield mats


def test_precondition_agrees_with_found(monkeypatch):
    # max_stable_eta refuses exactly the weights whose abscissa the simplex
    # search found not below 0: the same evaluator on the same family.
    # The average system's own eigenvalues disagree on 5 of these 24
    monkeypatch.setattr(synthesis, "_grid_radii",
                        lambda sys_, w, etas: [0.5] * len(etas))
    verdicts = []
    for mats in near_zero_families(24):
        result = find_stable_combination(mats, 0.05)
        sys_ = SwitchedSystem(tuple(SubSystem(A, np.zeros(3)) for A in mats))
        try:
            max_stable_eta(sys_, result.weights, grid_points=1)
            accepted = True
        except ValueError as exc:
            assert "not stable" in str(exc)
            accepted = False
        verdicts.append((result.found, accepted))
    assert all(found == accepted for found, accepted in verdicts)
    assert 0 < sum(found for found, _ in verdicts) < len(verdicts)
