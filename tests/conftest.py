import numpy as np
import pytest
import scipy.linalg

from swstab import presets
from swstab.model import SubSystem, SwitchedSystem


@pytest.fixture
def example1():
    return presets.example_1()


@pytest.fixture
def example2():
    return presets.example_2()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_stable_pair(rng, n=2):
    """Two random matrices whose mean is stable (for synthesis tests)."""
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        if np.max(np.linalg.eigvals(0.5 * (A + B)).real) < -0.1:
            return A, B


def shear_pair(K):
    """diag(-1, -2) +/- K S with S = [[0, 1], [0.3, 0]]: the even mix is
    diag(-1, -2), and for large K the monodromy overflows at moderate eta."""
    base, S = np.diag([-1.0, -2.0]), np.array([[0.0, 1.0], [0.3, 0.0]])
    return [base + K * S, base - K * S]


def expm_radius(matrices, alpha, period, eta):
    """rho of the one-cycle product of scipy expm factors, index order."""
    P = np.eye(len(matrices[0]))
    for A, a in zip(matrices, alpha):
        if a > 0.0:
            P = scipy.linalg.expm(eta * a * period * np.asarray(A)) @ P
    return float(np.max(np.abs(np.linalg.eigvals(P))))


def random_switched_system(rng, n, m, affine=False):
    subs = []
    for _ in range(m):
        A = rng.normal(size=(n, n))
        b = rng.normal(size=n) if affine else np.zeros(n)
        subs.append(SubSystem(A, b))
    return SwitchedSystem(tuple(subs))
