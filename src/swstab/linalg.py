"""Dense small-matrix numerics shared by every analysis module.

Plain kernels over numpy/scipy: matrix exponential (scaling-and-squaring
Pade), eigenvalues (LAPACK Hessenberg + shifted QR), induced 2-norm and LU
solve with a pivot check.  Kernels do not validate their arguments: outside
arrays are checked once, by as_matrix / as_square / as_vector, in the model
constructors and the entry points that take raw arrays.  The eigenvalue
kernel makes one finiteness check and then calls numpy's LAPACK gufunc
directly, without the shape and dtype checks that np.linalg.eigvals
repeats on every call; finite_spectrum is that call alone, for a caller
that checks finiteness once for many calls.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
# The LAPACK (geev) gufunc behind np.linalg.eigvals; calling it directly
# gives the same eigenvalues without the wrapper's per-call checks.  It is
# private to numpy, so a numpy upgrade may move it.
from numpy.linalg._umath_linalg import eigvals as _eigvals


class LinalgError(Exception):
    """Base class for numerical-kernel failures."""


class DimensionError(LinalgError, ValueError):
    """Input has the wrong shape (non-square, mismatched sizes)."""


class SingularMatrixError(LinalgError):
    """Linear solve hit a (near-)zero pivot."""

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot


class NumericalError(LinalgError):
    """Eigenvalue computation failed: no convergence or non-finite entries."""


def as_matrix(M) -> np.ndarray:
    """Validate and coerce to a finite 2-d float array."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def as_square(M) -> np.ndarray:
    A = as_matrix(M)
    if A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise DimensionError(
            f"expected a nonempty square matrix, got shape {A.shape}")
    return A


def as_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def mat_exp(M) -> np.ndarray:
    """Matrix exponential e^M of a square matrix, or of each matrix in a
    (k, n, n) stack (scaling-and-squaring with Pade approximant).

    scipy's expm works through a stack one slice at a time, so each slice
    has the bits of a call of its own; one call pays scipy's per-call
    overhead once for the whole stack.
    """
    return scipy.linalg.expm(M)


def spectrum(M) -> np.ndarray:
    """All eigenvalues of a square real matrix, or of each matrix in a
    (k, n, n) stack, as a complex array.

    Raises NumericalError on a non-finite entry or when LAPACK does not
    converge.
    """
    if not np.isfinite(M).all():
        raise NumericalError(
            "eigenvalue computation failed: "
            "Array must not contain infs or NaNs")
    # the gufunc flags non-convergence as an invalid operation and returns
    # NaN; the flag is silenced and the NaN becomes the error
    with np.errstate(invalid="ignore"):
        w = finite_spectrum(M)
    if np.isnan(w).any():
        raise NumericalError(
            "eigenvalue computation failed: Eigenvalues did not converge")
    return w


def finite_spectrum(M) -> np.ndarray:
    """spectrum without its checks, for a caller that knows M is finite
    and runs under np.errstate(invalid="ignore"): the eigenvalues of a
    matrix LAPACK does not converge on are NaN.  A non-finite M is not
    allowed: LAPACK's balancing prints an error for it."""
    return _eigvals(M, signature="d->D")


def spectral_radius(M) -> float:
    """max |lambda| over the eigenvalues of M."""
    return float(np.max(np.abs(spectrum(M))))


def operator_norm_2(M) -> float:
    """Induced 2-norm, sqrt of the spectral radius of M^T M.

    nan when M has a non-finite entry (an overflowed exponential), so every
    ``norm < bound`` test on it comes out false.
    """
    if not np.all(np.isfinite(M)):
        return math.nan
    return float(np.linalg.norm(M, 2))


def solve(M, rhs) -> np.ndarray:
    """Solve M x = rhs by LU with partial pivoting.

    Raises SingularMatrixError, carrying the offending pivot magnitude,
    when the factorisation produces a pivot at round-off level.
    """
    with warnings.catch_warnings():
        # the zero-pivot warning becomes a SingularMatrixError below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = max(np.max(np.abs(M)), 1.0)
    pivot_min = float(np.min(diag)) if diag.size else 0.0
    if pivot_min <= M.shape[0] * np.finfo(float).eps * scale:
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot {pivot_min:.3e})",
            pivot=pivot_min)
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
