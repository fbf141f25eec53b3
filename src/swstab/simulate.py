"""Exact piecewise simulation of switched affine systems, the one-period
Poincare map, limit cycles and the practical-stability radius.

Integration is exact per segment through the augmented-matrix exponential;
no generic ODE stepper is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .model import (EquilibriumError, SubSystem, SwitchedSystem,
                    average_system, equilibrium)
from .signals import NormMinPolicy, PeriodicSignal, activation_fractions

DIVERGENCE_GUARD = 1e12
# Most steps one call may take: samples plus segment crossings for
# simulate, closed-loop steps for simulate_norm_min.
MAX_STEPS = 1_000_000


class DivergenceError(Exception):
    """State norm exceeded the overflow guard; carries the escape time."""

    def __init__(self, time: float, trajectory: "Trajectory"):
        super().__init__(f"state norm exceeded {DIVERGENCE_GUARD:g} at t = {time:g}")
        self.time = time
        self.trajectory = trajectory


class NoAttractingCycleError(Exception):
    """The one-period map is not a contraction (rho(M) >= 1)."""


class DegenerateCycleError(Exception):
    """I - M is singular; the fixed point of the period map is not unique."""


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped state samples with the active subsystem per sample."""

    times: np.ndarray            # (N,)
    states: np.ndarray           # (N, n)
    active: np.ndarray           # (N,) 1-based subsystem ids

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must be strictly increasing")

    def write_csv(self, fh) -> None:
        """Rows "t,x1,...,xn,active" ordered by time."""
        n = self.states.shape[1]
        header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["active"])
        np.savetxt(fh, np.column_stack([self.times, self.states, self.active]),
                   fmt="%.12g", delimiter=",", header=header, comments="")


@dataclass(frozen=True)
class AffineMap:
    """x -> M x + v."""

    M: np.ndarray
    v: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.M @ x + self.v


@dataclass(frozen=True)
class Cycle:
    """Attracting periodic orbit of the switched affine dynamics."""

    fixed_point: np.ndarray
    period: float
    trajectory: Trajectory                        # one period from the fixed point
    average_equilibrium: Optional[np.ndarray]     # None if the average is singular
    practical_radius: Optional[float]     # max orbit distance to the average equilibrium

    @property
    def orbit(self) -> np.ndarray:            # (K, n) states over one period
        return self.trajectory.states

    def to_dict(self) -> dict:
        e_avg = self.average_equilibrium
        return {
            "fixed_point": self.fixed_point.tolist(),
            "period": self.period,
            "average_equilibrium": None if e_avg is None else e_avg.tolist(),
            "practical_radius": self.practical_radius,
        }


def segment_map(sub: SubSystem, tau: float) -> AffineMap:
    """Exact flow of dx/dt = A x + b over tau, as an affine map.

    Obtained from the exponential of the augmented matrix [[A, b], [0, 0]].
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = sub.n
    G = np.zeros((n + 1, n + 1))
    G[:n, :n] = sub.A
    G[:n, n] = sub.b
    E = linalg.mat_exp(tau * G)
    return AffineMap(E[:n, :n], E[:n, n])


def check_indices(sys: SwitchedSystem, sig: PeriodicSignal) -> None:
    """Raise IndexError if the signal names a subsystem the system lacks."""
    if sig.max_index > sys.m:
        raise IndexError(
            f"signal references subsystem {sig.max_index}, system has {sys.m}")


def poincare_map(sys: SwitchedSystem, sig: PeriodicSignal) -> AffineMap:
    """One-period map x(T) = M x(0) + v, composed segment by segment."""
    check_indices(sys, sig)
    M = np.eye(sys.n)
    v = np.zeros(sys.n)
    for idx, dur in sig.segments:
        step = segment_map(sys.subsystems[idx - 1], dur)
        M = step.M @ M
        v = step.M @ v + step.v
    return AffineMap(M, v)


def _check_work(steps: float) -> None:
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_end needs about {steps:.3g} steps, more than "
                         f"MAX_STEPS = {MAX_STEPS}")


def _guard(x: np.ndarray, t: float, times, states, actives):
    # written so that a NaN norm also trips the guard
    if not np.linalg.norm(x) <= DIVERGENCE_GUARD:
        partial = Trajectory(np.array(times), np.array(states),
                             np.array(actives, dtype=int))
        raise DivergenceError(t, partial)


def simulate(sys: SwitchedSystem, sig: PeriodicSignal, x0: np.ndarray,
             t_end: float, sample_dt: float) -> Trajectory:
    """Exact trajectory under a periodic signal, sampled every sample_dt.

    States are propagated exactly across each segment boundary; samples
    inside a segment use a partial-duration exact step.  Each sample is
    labelled with the segment the walk is propagating, so a sample at a
    switching instant reads the segment that begins there.  More than
    MAX_STEPS samples plus segment crossings raises ValueError up front.
    """
    if not (t_end > 0.0 and sample_dt > 0.0):
        raise ValueError("t_end and sample_dt must be positive")
    check_indices(sys, sig)
    _check_work(t_end / sample_dt + t_end / sig.period * len(sig.segments))

    n_samples = int(np.floor(t_end / sample_dt + 1e-9))
    sample_times = [k * sample_dt for k in range(1, n_samples + 1)]
    if not sample_times or sample_times[-1] < t_end - 1e-9 * t_end:
        sample_times.append(t_end)

    # segment boundaries and full-segment maps, repeated over periods
    full_maps = [segment_map(sys.subsystems[idx - 1], dur)
                 for idx, dur in sig.segments]
    durations = [dur for _, dur in sig.segments]
    partial_cache: dict[tuple[int, float], AffineMap] = {}

    seg_pos = 0              # position within the segment list
    t_seg = 0.0              # start time of the current segment
    x = linalg.as_vector(x0).copy()
    times = [0.0]
    states = [x.copy()]
    actives = [sig.segments[seg_pos].index]
    for t_s in sample_times:
        # cross whole segments that end at or before the sample time
        while t_seg + durations[seg_pos] <= t_s + 1e-12 * max(t_s, 1.0):
            x = full_maps[seg_pos](x)
            t_seg += durations[seg_pos]
            seg_pos = (seg_pos + 1) % len(durations)
            _guard(x, t_seg, times, states, actives)
        idx = sig.segments[seg_pos].index
        tau = t_s - t_seg
        if tau > 0.0:
            key = (seg_pos, round(tau, 12))
            step = partial_cache.get(key)
            if step is None:
                step = segment_map(sys.subsystems[idx - 1], tau)
                partial_cache[key] = step
            x_s = step(x)
        else:
            x_s = x.copy()
        _guard(x_s, t_s, times, states, actives)
        times.append(t_s)
        states.append(x_s)
        actives.append(idx)

    return Trajectory(np.array(times), np.array(states),
                      np.array(actives, dtype=int))


def simulate_norm_min(sys: SwitchedSystem, x0: np.ndarray, t_end: float,
                      policy: NormMinPolicy) -> Trajectory:
    """Sampled-time closed loop under the norm-minimising selection rule.

    Each step holds the selected subsystem for the policy step and advances
    exactly; the recorded active index is the selection made at the sample's
    state, argmin_i x^T (A_i x + b_i) with ties to the lowest index.  More
    than MAX_STEPS steps raises ValueError up front.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    h = policy.step
    _check_work(t_end / h)
    n_steps = max(1, int(round(t_end / h)))
    step_maps = [segment_map(sub, h) for sub in sys.subsystems]
    # stacked derivative pieces for fast selection
    As = np.stack([sub.A for sub in sys.subsystems])
    bs = np.stack([sub.b for sub in sys.subsystems])

    x = linalg.as_vector(x0).copy()
    times, states, actives = [], [], []
    for k in range(n_steps + 1):
        t = k * h
        drift = As @ x + bs                       # (m, n)
        i = int(np.argmin(drift @ x))
        times.append(t)
        states.append(x.copy())
        actives.append(i + 1)
        if k < n_steps:
            x = step_maps[i](x)
            _guard(x, t + h, times, states, actives)

    return Trajectory(np.array(times), np.array(states),
                      np.array(actives, dtype=int))


def limit_cycle(sys: SwitchedSystem, sig: PeriodicSignal,
                orbit_samples: int = 200) -> Cycle:
    """Attracting periodic orbit of the one-period affine map.

    The fixed point is x* = (I - M)^{-1} v; the orbit is the exact
    trajectory from x* over one period.  The practical radius measures the
    orbit against the average-system equilibrium when that exists.
    """
    pm = poincare_map(sys, sig)
    rho = linalg.spectral_radius(pm.M)
    if rho >= 1.0:
        raise NoAttractingCycleError(
            f"one-period map is not a contraction (rho = {rho:.6g})")
    try:
        x_star = linalg.solve(np.eye(sys.n) - pm.M, pm.v)
    except linalg.SingularMatrixError as exc:
        raise DegenerateCycleError(str(exc)) from exc

    T = sig.period
    traj = simulate(sys, sig, x_star, T, T / orbit_samples)

    e_avg: Optional[np.ndarray] = None
    practical_radius: Optional[float] = None
    try:
        e_avg = equilibrium(average_system(sys, activation_fractions(sig, sys.m)))
        practical_radius = float(
            np.max(np.linalg.norm(traj.states - e_avg, axis=1)))
    except EquilibriumError:
        pass

    return Cycle(fixed_point=x_star, period=T, trajectory=traj,
                 average_equilibrium=e_avg, practical_radius=practical_radius)
