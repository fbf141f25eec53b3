"""Monodromy computation and stability certificates for periodic switching.

Contains the one-period state-transition (monodromy) matrix, the spectral
radius stability test, the closed-form determinant oracle, the truncated
commutator correction of the log-monodromy, a dwell-scale heuristic built
on it, and the measured deviation of the monodromy from the average system.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .model import SwitchedSystem, Weights, average_system, json_int
from .signals import PeriodicSignal, from_weights
from .simulate import poincare_map

DEFAULT_K_LIST = tuple(2 ** i for i in range(11))


@dataclass(frozen=True)
class StabilityReport:
    """Verdict and diagnostics for one periodic signal.

    ``is_stable`` is the exact discrete criterion rho(Phi) < 1;
    ``norm_condition_holds`` is the conservative ||Phi|| < 1 certificate.
    """

    spectral_radius: float
    determinant: float
    det_oracle: float
    is_stable: bool
    norm_condition_holds: bool
    eta: float
    period: float

    def to_dict(self) -> dict:
        return asdict(self)


def monodromy(sys: SwitchedSystem, sig: PeriodicSignal) -> np.ndarray:
    """One-period transition matrix: the linear block M of the Poincare map.

    Equal to the product of segment exponentials, earliest segment
    rightmost; affine drifts do not enter it.
    """
    return poincare_map(sys, sig).M


def det_monodromy_oracle(sys: SwitchedSystem, sig: PeriodicSignal) -> float:
    """Exact determinant of the monodromy, independent of segment order.

    det(prod e^{tau_k A_k}) = exp(sum_k tau_k tr(A_k)); inf on overflow.
    """
    try:
        return math.exp(sum(dur * np.trace(sys.subsystem(idx).A)
                            for idx, dur in sig.segments))
    except OverflowError:
        return math.inf


def is_ici_stable(sys: SwitchedSystem, sig: PeriodicSignal,
                  eta: float = 1.0) -> StabilityReport:
    """Stability report for the (already eta-scaled) periodic signal."""
    Phi = monodromy(sys, sig)
    rho = linalg.spectral_radius(Phi)
    # a determinant beyond the float range is inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(Phi))
    return StabilityReport(
        spectral_radius=rho,
        determinant=det,
        det_oracle=det_monodromy_oracle(sys, sig),
        is_stable=rho < 1.0,
        norm_condition_holds=linalg.operator_norm_2(Phi) < 1.0,
        eta=float(eta),
        period=sig.period,
    )


def bch_c2(sys: SwitchedSystem, w: Weights) -> np.ndarray:
    """Second-order commutator correction of the log-monodromy.

    For the one-cycle product e^{s a_m A_m} ... e^{s a_1 A_1} with s = eta*T,
    i.e. subsystems active in index order as from_weights builds the signal,
    log = s * sum_i a_i A_i + s^2 * C2 + O(s^3) where

        C2 = 1/2 * sum_{j > i} a_j a_i [A_j, A_i],   [X, Y] = XY - YX.

    Commuting subsystems give C2 = 0.
    """
    if w.m != sys.m:
        raise ValueError(f"weights length {w.m} != subsystem count {sys.m}")
    a = w.alpha
    A = [sub.A for sub in sys.subsystems]
    C = np.zeros((sys.n, sys.n))
    for j in range(sys.m):
        for i in range(j):
            C += 0.5 * a[j] * a[i] * (A[j] @ A[i] - A[i] @ A[j])
    return C


def lemma4_bound_holds(sys: SwitchedSystem, w: Weights, eta: float,
                       k_list: Sequence[int] = DEFAULT_K_LIST) -> bool:
    """Dwell-scale heuristic for stability at dwell scale eta.

    With s = eta*T and C the second-order commutator correction, checks

        ||exp((s^2 / k) C)|| < ||exp((s / k) sum_i alpha_i A_i)||^{-1}

    for every k in k_list.  The commutator side shrinks quadratically in s,
    the average side only linearly, so the bound always holds for small eta
    when the average matrix is stable.  It truncates the log-monodromy at
    second order, so it is not a sufficient condition: a True next to
    rho(Phi) >= 1 happens (A_1 = [[0.725, -1.649], [-1.749, -2.043]],
    A_2 = [[-3.461, 1.526], [1.98, 0.955]], each held for 1.5: rho = 1.277).
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    ks = [json_int(k, "k_list entry") for k in k_list]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("k_list must be a nonempty list of positive integers")
    C = bch_c2(sys, w)
    A_avg = average_system(sys, w).A
    s = eta * w.period
    # an exponential that overflows has a nan norm, and the bound is false
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            lhs = linalg.operator_norm_2(linalg.mat_exp((s * s / k) * C))
            rhs = 1.0 / linalg.operator_norm_2(
                linalg.mat_exp((s / k) * A_avg))
            if not lhs < rhs:
                return False
    return True


def average_deviation(sys: SwitchedSystem, w: Weights, eta: float,
                      horizon: float = 1.0) -> float:
    """||Phi(eta over horizon) - e^{A_avg * horizon}|| in the 2-norm.

    The horizon must hold a whole number of eta*T periods.  Returns nan
    when the monodromy power overflows to infinity; numpy raises LinAlgError
    instead when the overflow leaves NaN entries.
    """
    sig = from_weights(w, eta)
    reps = horizon / sig.period
    n_reps = round(reps)
    if n_reps < 1 or abs(reps - n_reps) > 1e-9 * max(1.0, abs(reps)):
        raise ValueError(
            f"horizon {horizon} is not an integer multiple of the period {sig.period}")
    Phi = np.linalg.matrix_power(monodromy(sys, sig), n_reps)
    A_avg = average_system(sys, w).A
    return linalg.operator_norm_2(Phi - linalg.mat_exp(horizon * A_avg))
