import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import linalg
from swstab.linalg import (NumericalError, SingularMatrixError, mat_exp,
                           operator_norm_2, solve, spectral_radius, spectrum)

A1 = np.array([[-2.1, -2.0], [0.5, 1.0]])
A2 = np.array([[1.0, 2.0], [0.1, -2.0]])


def square_matrices(n=2, bound=5.0):
    elems = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return st.lists(elems, min_size=n * n, max_size=n * n).map(
        lambda vs: np.array(vs).reshape(n, n))


def quadratic_eigs(M):
    """Eigenvalues of a 2x2 matrix from the trace/determinant formula."""
    tr = M[0, 0] + M[1, 1]
    disc = complex(tr * tr - 4.0 * np.linalg.det(M)) ** 0.5
    return sorted([(tr + disc) / 2.0, (tr - disc) / 2.0], key=lambda z: z.real)


class TestMatExp:
    def test_zero(self):
        np.testing.assert_allclose(mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        E = mat_exp(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(E, np.diag([math.e, 1.0 / math.e]),
                                   rtol=1e-12)

    def test_nilpotent_truncates_exactly(self):
        E = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(E, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @settings(max_examples=50, deadline=None)
    @given(square_matrices())
    def test_det_trace_identity(self, M):
        # det(e^M) = e^{tr M}
        expected = math.exp(np.trace(M))
        assert np.linalg.det(mat_exp(M)) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(square_matrices())
    def test_exp_inverse(self, M):
        np.testing.assert_allclose(mat_exp(M) @ mat_exp(-M), np.eye(2),
                                   atol=1e-10)

    def test_similarity(self, rng):
        for _ in range(20):
            M = rng.normal(size=(3, 3))
            P = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
            lhs = mat_exp(P @ M @ np.linalg.inv(P))
            rhs = P @ mat_exp(M) @ np.linalg.inv(P)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1, abs(rhs).max()))


class TestSpectrum:
    def test_diagonal(self):
        eigs = sorted(spectrum(np.diag([3.0, -2.0])).real)
        np.testing.assert_allclose(eigs, [-2.0, 3.0])

    def test_benchmark_matrix_matches_quadratic_formula(self):
        got = sorted(spectrum(A1), key=lambda z: z.real)
        want = quadratic_eigs(A1)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rotation_generator(self):
        eigs = sorted(spectrum(np.array([[0.0, -1.0], [1.0, 0.0]])),
                      key=lambda z: z.imag)
        np.testing.assert_allclose(eigs, [-1j, 1j], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(square_matrices())
    def test_quadratic_formula_2x2(self, M):
        got = sorted(spectrum(M), key=lambda z: (z.real, z.imag))
        want = sorted(quadratic_eigs(M), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_conjugate_closed(self):
        eigs = spectrum(np.array([[0.0, -2.0], [3.0, 0.0]]))
        assert sorted(eigs.imag)[0] == pytest.approx(-sorted(eigs.imag)[1])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_is_numerical_error(self, bad):
        with pytest.raises(NumericalError, match="eigenvalue computation failed"):
            spectrum(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_in_stack_is_numerical_error(self, bad):
        M = np.ones((5, 3, 3))
        M[4, 2, 2] = bad
        with pytest.raises(NumericalError, match="eigenvalue computation failed"):
            spectrum(M)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 300),
           stacked=st.booleans(), symmetric=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_numpy_eigvals(self, n, k, stacked, symmetric, seed):
        # the same LAPACK routine as np.linalg.eigvals, so the values agree
        # to the bit; symmetric matrices give all-real spectra, for which
        # numpy returns a real array
        M = np.random.default_rng(seed).normal(size=(k, n, n))
        if symmetric:
            M = M + M.transpose(0, 2, 1)
        if not stacked:
            M = M[0]
        got = spectrum(M)
        want = np.linalg.eigvals(M).astype(complex)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_convergence_is_numerical_error(self, monkeypatch):
        # LAPACK reports no convergence as NaN output plus the invalid
        # floating-point flag; 0/0 raises the same flag, which would turn
        # into a RuntimeWarning (here an error) if the kernel let it out
        def no_convergence(M, signature):
            return np.zeros(M.shape[:-1], dtype=complex) / 0.0

        monkeypatch.setattr(linalg, "_eigvals", no_convergence)
        with pytest.raises(NumericalError, match="did not converge"):
            spectrum(np.eye(3))


class TestSpectralScalars:
    def test_abscissa_of_triangular_average(self):
        assert spectrum(0.5 * (A1 + A2)).real.max() == pytest.approx(-0.5)

    def test_radius_of_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_abscissa_of_unstable_subsystem(self):
        want = max(z.real for z in quadratic_eigs(A2))
        assert spectrum(A2).real.max() == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(1.065, abs=1e-3)

    def test_cyclic_radius_invariance(self, rng):
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            B = rng.normal(size=(3, 3))
            assert spectral_radius(A @ B) == pytest.approx(
                spectral_radius(B @ A), abs=1e-9 * (1 + spectral_radius(A @ B)))


class TestNorm:
    def test_diagonal(self):
        assert operator_norm_2(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_identity(self):
        assert operator_norm_2(np.eye(4)) == pytest.approx(1.0)

    def test_shift_matrix(self):
        # M^T M = diag(0, 1)
        assert operator_norm_2(np.array([[0.0, 1.0], [0.0, 0.0]])) == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_is_nan(self, bad):
        assert math.isnan(operator_norm_2(np.array([[1.0, bad], [0.0, 1.0]])))


class TestDetSolve:
    def test_solve_for_equilibrium(self):
        x = solve(A1, np.array([2.0, -1.0]))
        np.testing.assert_allclose(x, [0.0, -1.0], atol=1e-12)

    def test_solve_identity(self):
        v = np.array([1.5, -2.0, 0.25])
        np.testing.assert_allclose(solve(np.eye(3), v), v)

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
        assert exc.value.pivot >= 0.0

    def test_residual_accuracy(self, rng):
        for _ in range(20):
            M = rng.normal(size=(4, 4)) + 4 * np.eye(4)
            b = rng.normal(size=4)
            x = solve(M, b)
            assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_finite_entries_enforced():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.as_vector(np.array([np.inf, 0.0]))
