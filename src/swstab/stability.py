"""Monodromy computation and stability certificates for periodic switching.

Contains the one-period state-transition (monodromy) matrix, the spectral
radius stability test, the closed-form determinant oracle, the truncated
commutator correction of the log-monodromy, the conservative dwell-scale
bound, and the average-system approximation error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .model import SwitchedSystem, Weights, average_system
from .signals import PeriodicSignal, from_weights
from .simulate import check_indices, poincare_map

DEFAULT_K_LIST = tuple(2 ** i for i in range(11))


@dataclass(frozen=True)
class StabilityReport:
    """Verdict and diagnostics for one periodic signal.

    ``is_stable`` is the exact discrete criterion rho(Phi) < 1;
    ``norm_condition_holds`` is the conservative ||Phi|| < 1 certificate.
    """

    monodromy: np.ndarray
    spectral_radius: float
    determinant: float
    det_oracle: float
    is_stable: bool
    norm_condition_holds: bool
    eta: float
    period: float

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "period": self.period,
            "spectral_radius": self.spectral_radius,
            "determinant": self.determinant,
            "det_oracle": self.det_oracle,
            "is_stable": self.is_stable,
            "norm_condition_holds": self.norm_condition_holds,
        }


def monodromy(sys: SwitchedSystem, sig: PeriodicSignal) -> np.ndarray:
    """One-period transition matrix: the linear block M of the Poincare map.

    Equal to the product of segment exponentials, earliest segment
    rightmost; affine drifts do not enter it.
    """
    return poincare_map(sys, sig).M


def det_monodromy_oracle(sys: SwitchedSystem, sig: PeriodicSignal) -> float:
    """Exact determinant of the monodromy, independent of segment order.

    det(prod e^{tau_k A_k}) = exp(sum_k tau_k tr(A_k)).
    """
    check_indices(sys, sig)
    return math.exp(sum(dur * np.trace(sys.subsystems[idx - 1].A)
                        for idx, dur in sig.segments))


def is_ici_stable(sys: SwitchedSystem, sig: PeriodicSignal,
                  eta: float = 1.0) -> StabilityReport:
    """Stability report for the (already eta-scaled) periodic signal."""
    Phi = monodromy(sys, sig)
    rho = linalg.spectral_radius(Phi)
    return StabilityReport(
        monodromy=Phi,
        spectral_radius=rho,
        determinant=linalg.determinant(Phi),
        det_oracle=det_monodromy_oracle(sys, sig),
        is_stable=rho < 1.0,
        norm_condition_holds=linalg.operator_norm_2(Phi) < 1.0,
        eta=float(eta),
        period=sig.period,
    )


def bch_c2(sys: SwitchedSystem, w: Weights,
           order: Optional[Sequence[int]] = None) -> np.ndarray:
    """Second-order commutator correction of the log-monodromy.

    For the one-cycle product e^{s a_m A_{p(m)}} ... e^{s a_1 A_{p(1)}} with
    s = eta*T, log = s * sum_i a_i A_{p(i)} + s^2 * C2 + O(s^3) where

        C2 = 1/2 * sum_{j > i} a_j a_i [A_{p(j)}, A_{p(i)}]

    and p is the activation order.  Commuting subsystems give C2 = 0.
    """
    if w.m != sys.m:
        raise ValueError(f"weights length {w.m} != subsystem count {sys.m}")
    p = list(range(1, sys.m + 1)) if order is None else [int(i) for i in order]
    if sorted(p) != list(range(1, sys.m + 1)):
        raise ValueError(f"order {p!r} is not a permutation of 1..{sys.m}")
    a = [w.alpha[i - 1] for i in p]
    A = [sys.subsystems[i - 1].A for i in p]
    C = np.zeros((sys.n, sys.n))
    for j in range(sys.m):
        for i in range(j):
            C += 0.5 * a[j] * a[i] * linalg.commutator(A[j], A[i])
    return C


def lemma4_bound_holds(sys: SwitchedSystem, w: Weights, eta: float,
                       k_list: Sequence[int] = DEFAULT_K_LIST,
                       order: Optional[Sequence[int]] = None) -> bool:
    """Conservative sufficient condition for stability at dwell scale eta.

    With s = eta*T and C the second-order commutator correction, checks

        ||exp((s^2 / k) C)|| < ||exp((s / k) sum_i alpha_i A_i)||^{-1}

    for every k in k_list.  The commutator side shrinks quadratically in s,
    the average side only linearly, so the bound always holds for small eta
    when the average matrix is stable.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    ks = [int(k) for k in k_list]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("k_list must be a nonempty list of positive integers")
    C = bch_c2(sys, w, order)
    A_avg = average_system(sys, w).A
    s = eta * w.period
    for k in ks:
        lhs = linalg.operator_norm_2(linalg.mat_exp((s * s / k) * C))
        rhs = 1.0 / linalg.operator_norm_2(linalg.mat_exp((s / k) * A_avg))
        if not lhs < rhs:
            return False
    return True


def average_error_bound(A: np.ndarray, C: np.ndarray,
                        eta: float, T: float) -> float:
    """Bound on ||e^{AT + eta C T} - e^{AT}|| in the induced 2-norm:

        ||eta C T|| * e^{||A T||} * e^{||eta C T||}
    """
    if not (eta > 0.0 and T > 0.0):
        raise ValueError("eta and T must be positive")
    nct = eta * T * linalg.operator_norm_2(C)
    nat = T * linalg.operator_norm_2(A)
    return nct * math.exp(nat) * math.exp(nct)


def average_deviation(sys: SwitchedSystem, w: Weights, eta: float,
                      horizon: float = 1.0) -> float:
    """||Phi(eta over horizon) - e^{A_avg * horizon}|| in the 2-norm.

    The horizon must hold a whole number of eta*T periods.
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
