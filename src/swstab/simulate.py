"""Exact piecewise simulation of switched affine systems, the one-period
Poincare map, limit cycles and the practical-stability radius.

Integration is exact per segment through the augmented-matrix exponential;
no generic ODE stepper is involved anywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .model import (EquilibriumError, SwitchedSystem, average_system,
                    equilibrium)
from .signals import NormMinPolicy, PeriodicSignal, activation_fractions

DIVERGENCE_GUARD = 1e12
# A block whose squared norms stay below this is clear of the guard: the
# margin covers the rounding difference between a row sum and x.dot(x).
_GUARD_CLEAR = DIVERGENCE_GUARD ** 2 * (1.0 - 1e-9)
# Most steps one call may take: samples plus segment crossings for
# simulate, closed-loop steps for simulate_norm_min.  Also the cap on the
# command line's --circle initial conditions and on max_stable_eta's
# grid_points.
MAX_STEPS = 1_000_000
# Rows each batched loop handles per call: write_table's rows, simulate's
# planned samples, simulate_norm_min's guard checks, the simplex scan and
# the eta grid.  A larger batch pays per-call overhead less often, but
# holds more in memory and wastes more work after a divergence; no output
# depends on the value.
BLOCK_ROWS = 256


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


def write_table(fh, names: list[str], rows: np.ndarray) -> None:
    """Write a header line of names, then each row of the 2-D array rows
    as "%.12g" values joined by ",".

    The bytes are those of np.savetxt(fh, rows, fmt="%.12g", delimiter=",",
    header=",".join(names), comments=""); the rows are formatted
    BLOCK_ROWS at a time with one % each, not one call per row.
    """
    rows = np.asarray(rows, dtype=float)
    fh.write(",".join(names) + "\n")
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
        """Header "t,x1,...,xn,active", then one row per sample in time
        order, written by write_table: the bytes of np.savetxt with
        fmt="%.12g" and delimiter=","."""
        n = self.states.shape[1]
        write_table(fh, ["t"] + [f"x{i + 1}" for i in range(n)] + ["active"],
                    np.column_stack([self.times, self.states, self.active]))


@dataclass(frozen=True)
class AffineMap:
    """x -> M x + v.

    The product goes through ndarray.dot, which reaches the same BLAS call
    as M @ x with less overhead; on the tested OpenBLAS the bits are equal.
    """

    M: np.ndarray
    v: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.M.dot(x) + self.v


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


def segment_map(sys: SwitchedSystem,
                pairs: Sequence[tuple[int, float]]) -> list[AffineMap]:
    """Exact flow of dx/dt = A_i x + b_i over tau, as an affine map, for
    each (i, tau) in pairs; i is a 1-based subsystem index, as in a
    signal's segments, which are such pairs.

    Each map comes from the exponential of the augmented matrix
    tau [[A_i, b_i], [0, 0]], all of them from one linalg.mat_exp call on
    the (k, n + 1, n + 1) stack: each map has the bits of a call of its
    own, and scipy's per-call overhead is paid once.
    """
    n = sys.n
    G = np.zeros((len(pairs), n + 1, n + 1))
    for k, (idx, tau) in enumerate(pairs):
        sub = sys.subsystem(idx)
        if not tau > 0.0:
            raise ValueError(f"tau must be positive, got {tau}")
        G[k, :n, :n] = sub.A
        G[k, :n, n] = sub.b
    G *= np.array([tau for _, tau in pairs], dtype=float)[:, None, None]
    E = linalg.mat_exp(G)
    return [AffineMap(E[k, :n, :n], E[k, :n, n]) for k in range(len(pairs))]


def poincare_maps(sys: SwitchedSystem,
                  sigs: Sequence[PeriodicSignal]) -> list[AffineMap]:
    """One-period map x(T) = M x(0) + v of each signal, composed segment by
    segment; one segment_map call builds the steps of every signal."""
    maps = []
    # an overflow leaves inf or nan, without a warning; callers check for it
    with np.errstate(over="ignore", invalid="ignore"):
        steps = segment_map(sys, [seg for sig in sigs for seg in sig.segments])
        start = 0
        for sig in sigs:
            M = np.eye(sys.n)
            v = np.zeros(sys.n)
            for step in steps[start:start + len(sig.segments)]:
                M = step.M.dot(M)
                v = step.M.dot(v) + step.v
            start += len(sig.segments)
            maps.append(AffineMap(M, v))
    return maps


def poincare_map(sys: SwitchedSystem, sig: PeriodicSignal) -> AffineMap:
    """One-period map x(T) = M x(0) + v, composed segment by segment."""
    return poincare_maps(sys, (sig,))[0]


def check_simulation(t_end: float, sample_dt: float,
                     sig: Optional[PeriodicSignal] = None) -> None:
    """Refuse a run before any work: raise ValueError unless t_end and
    sample_dt are positive and the steps it takes (samples, plus the
    segment crossings of sig when given) are at most MAX_STEPS."""
    if not (t_end > 0.0 and sample_dt > 0.0):
        raise ValueError(f"t_end and sample_dt must be positive, got "
                         f"{t_end:g} and {sample_dt:g}")
    steps = t_end / sample_dt
    if sig is not None:
        steps += t_end / sig.period * len(sig.segments)
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_end needs about {steps:.3g} steps, more than "
                         f"MAX_STEPS = {MAX_STEPS}")


def _guard(x: np.ndarray, t: float, times: np.ndarray, states: np.ndarray,
           active: np.ndarray, rows: int) -> None:
    """Raise DivergenceError at time t, carrying the first rows samples,
    once the state norm passes DIVERGENCE_GUARD."""
    # np.linalg.norm's own formula for a real vector, without its per-call
    # checks; written so that a NaN norm also trips the guard
    if not math.sqrt(x.dot(x)) <= DIVERGENCE_GUARD:
        raise DivergenceError(t, Trajectory(times[:rows], states[:rows],
                                            active[:rows]))


def _walk(durations: list[float], sample_times: list[float]):
    """For each sample time, in order: the time, the segments crossed since
    the last sample as (position, end time) pairs, then the position of the
    segment holding the sample and the sample's offset into it."""
    seg_pos = 0              # position within the segment list
    t_seg = 0.0              # start time of the current segment
    for t_s in sample_times:
        crossed = []
        # whole segments that end at or before the sample time
        while t_seg + durations[seg_pos] <= t_s + 1e-12 * t_s:
            t_seg += durations[seg_pos]
            crossed.append((seg_pos, t_seg))
            seg_pos = (seg_pos + 1) % len(durations)
        yield t_s, crossed, seg_pos, t_s - t_seg


def simulate(sys: SwitchedSystem, sig: PeriodicSignal, x0: np.ndarray,
             t_end: float, sample_dt: float) -> Trajectory:
    """Exact trajectory under a periodic signal, sampled every sample_dt.

    States are propagated exactly across each segment boundary; samples
    inside a segment use a partial-duration exact step.  Each sample is
    labelled with the segment the walk is propagating, so a sample at a
    switching instant reads the segment that begins there.  The walk is
    planned BLOCK_ROWS samples ahead: one segment_map call builds the maps
    the block needs that no earlier block built (the full-segment maps,
    then one partial map per distinct pair of a segment and the offset's
    fraction of it, rounded to 12 decimals), and the block is then
    propagated.  A segment ends at a sample when its end lies within a
    relative 1e-12 of the sample time.  More than MAX_STEPS samples
    plus segment crossings raises ValueError up front, as does an x0 that
    SwitchedSystem.state refuses.  As in poincare_maps, a map or a state
    that overflows leaves inf or nan without a warning, and the divergence
    guard classifies it.
    """
    check_simulation(t_end, sample_dt, sig)

    n_samples = int(np.floor(t_end / sample_dt + 1e-9))
    sample_times = [k * sample_dt for k in range(1, n_samples + 1)]
    if not sample_times or sample_times[-1] < t_end - 1e-9 * t_end:
        sample_times.append(t_end)

    x = sys.state(x0)
    times = np.array([0.0] + sample_times)
    states = np.empty((len(times), x.size))
    active = np.empty(len(times), dtype=int)
    states[0] = x
    active[0] = sig.segments[0].index

    # map positions: the full segments first, then the first offset met of
    # each partial key
    partial: dict[tuple[int, float], int] = {}
    maps: list[AffineMap] = []
    pending = list(sig.segments)
    durations = [dur for _, dur in sig.segments]
    walk = _walk(durations, sample_times)

    def partial_key(seg_pos: int, tau: float) -> tuple[int, float]:
        return seg_pos, round(tau / durations[seg_pos], 12)

    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, len(times), BLOCK_ROWS):
            block = [step for _, step in zip(range(BLOCK_ROWS), walk)]
            for _, _, seg_pos, tau in block:
                key = partial_key(seg_pos, tau)
                if tau > 0.0 and key not in partial:
                    partial[key] = len(maps) + len(pending)
                    pending.append((sig.segments[seg_pos].index, tau))
            if pending:
                maps += segment_map(sys, pending)
                pending = []
            for row, (t_s, crossed, seg_pos, tau) in enumerate(block,
                                                               start=first):
                for pos, t_seg in crossed:
                    x = maps[pos](x)
                    _guard(x, t_seg, times, states, active, row)
                x_s = (maps[partial[partial_key(seg_pos, tau)]](x) if tau > 0.0
                       else x)
                _guard(x_s, t_s, times, states, active, row)
                states[row] = x_s
                active[row] = sig.segments[seg_pos].index

    return Trajectory(times, states, active)


def simulate_norm_min(sys: SwitchedSystem, x0: np.ndarray, t_end: float,
                      policy: NormMinPolicy) -> Trajectory:
    """Sampled-time closed loop under the norm-minimising selection rule.

    Each step holds the selected subsystem for the policy step and advances
    exactly; the recorded active index is the selection made at the sample's
    state, argmin_i x^T (A_i x + b_i) with ties to the lowest index.  The
    A_i and the one-step matrices M_i of segment_map are stacked into one
    (2mn, n) array, so a step is one matrix-vector product through
    ndarray.dot, plus one addition of every b_i and v_i: its first m blocks
    give the selection values, and the selected block is the next state.
    On the tested OpenBLAS, ndarray.dot gives the bits of np.matmul and of
    the separate products (test_matches_reference_loop checks it).

    The divergence guard is checked once per BLOCK_ROWS new states, with
    one squared-norm test on the block; a block not clearly below
    DIVERGENCE_GUARD is walked row by row with _guard's exact formula, so
    the escape row, its time and the trajectory carried by DivergenceError
    are those of a per-step check, and the steps taken past the escape are
    dropped.  The samples lie at k * step up to t_end, so more than
    MAX_STEPS steps, or a t_end that is not a whole number of steps (to a
    relative 1e-9), raises ValueError up front, as does an x0 that
    SwitchedSystem.state refuses.  As in poincare_maps, a step map that
    overflows leaves inf or nan without a warning; the guard classifies a
    non-finite state, and a map never selected does no harm.
    """
    h = policy.step
    check_simulation(t_end, h)
    steps = t_end / h
    n_steps = round(steps)
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * steps:
        raise ValueError(f"t_end = {t_end:g} is not a whole number of steps "
                         f"of {h:g} (t_end / step = {steps:.10g})")
    m, n = sys.m, sys.n
    x0 = sys.state(x0)
    times = np.arange(n_steps + 1) * h          # bitwise equal to k * h
    states = np.empty((n_steps + 1, n))
    active = np.empty(n_steps + 1, dtype=int)
    states[0] = x0
    x = states[0]
    # the product also multiplies the step maps that are not selected
    with np.errstate(over="ignore", invalid="ignore"):
        step_maps = segment_map(sys, [(i, h) for i in range(1, m + 1)])
        stacked = np.concatenate([sub.A for sub in sys.subsystems]
                                 + [step.M for step in step_maps])
        offsets = np.concatenate([sub.b for sub in sys.subsystems]
                                 + [step.v for step in step_maps])
        # views of one product plus offsets: the (m, n) block of
        # A_i x + b_i, then each M_i x + v_i
        product = np.empty(2 * m * n)
        rates = product[:m * n].reshape(m, n)
        moves = [product[(m + i) * n:(m + i + 1) * n] for i in range(m)]
        values = np.empty(m)
        for first in range(1, n_steps + 1, BLOCK_ROWS):
            stop = min(first + BLOCK_ROWS, n_steps + 1)
            for row in range(first, stop):
                stacked.dot(x, out=product)
                product += offsets
                i = rates.dot(x, out=values).argmin()
                active[row - 1] = i + 1
                states[row] = moves[i]
                x = states[row]
            # one squared-norm test per block; a NaN fails it too, and a
            # block it does not clear is walked with _guard's exact formula
            block = states[first:stop]
            if not np.einsum("ij,ij->i", block, block).max() < _GUARD_CLEAR:
                for row in range(first, stop):
                    _guard(states[row], (row - 1) * h + h,
                           times, states, active, row)
        # the selection at the last state, which no step follows
        stacked.dot(x, out=product)
        product += offsets
        active[n_steps] = rates.dot(x, out=values).argmin() + 1

    return Trajectory(times, states, active)


def limit_cycle(sys: SwitchedSystem, sig: PeriodicSignal,
                orbit_samples: int = 200) -> Cycle:
    """Attracting periodic orbit of the one-period affine map.

    The fixed point is x* = (I - M)^{-1} v; the orbit is the exact
    trajectory from x* over one period, sampled at orbit_samples equal
    steps.  The practical radius measures the orbit against the
    average-system equilibrium when that exists.  An orbit_samples that is
    not an integer >= 1 (a bool included) raises ValueError before any work.
    """
    if (isinstance(orbit_samples, bool)
            or not isinstance(orbit_samples, numbers.Integral)
            or orbit_samples < 1):
        raise ValueError(f"orbit_samples must be an integer >= 1, "
                         f"got {orbit_samples!r}")
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
