"""Periodic switching-signal algebra: scaling, shifting, permutation,
activation fractions, and the sampled norm-minimising policy descriptor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import (Weights, json_field, json_float, json_int,
                    json_objects, read_json)


class Segment(NamedTuple):
    index: int      # 1-based subsystem id
    duration: float


@dataclass(frozen=True)
class PeriodicSignal:
    """Ordered activation segments, repeated forever.

    The signal is right-continuous: a switching instant belongs to the
    segment that begins there.  Every duration is strictly positive, so the
    signal is non-vanishing with dwell time min(durations).
    """

    segments: tuple[Segment, ...]
    period: float = field(init=False, compare=False)   # sum of durations

    def __post_init__(self):
        segs = tuple(Segment(int(i), float(d)) for i, d in self.segments)
        if not segs:
            raise ValueError("a periodic signal needs at least one segment")
        for k, (idx, dur) in enumerate(segs):
            if idx < 1:
                raise ValueError(f"segment {k}: subsystem index must be >= 1, got {idx}")
            if not (dur > 0.0 and np.isfinite(dur)):
                raise ValueError(f"segment {k}: duration must be positive, got {dur}")
        # left to right, as _walk accumulates the segment ends; the builtin
        # sum compensates from Python 3.12 on, so its last bit would depend
        # on the interpreter
        period = 0.0
        for _, dur in segs:
            period += dur
        if not np.isfinite(period):
            raise ValueError(f"the durations sum to a period of {period}; "
                             "the period must be finite")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "period", period)

    @property
    def max_index(self) -> int:
        return max(i for i, _ in self.segments)


@dataclass(frozen=True)
class NormMinPolicy:
    """Sampled-time norm-minimising state feedback.

    At each step of length ``step`` the subsystem minimising x^T (A_i x + b_i)
    is selected; ties go to the lowest index.
    """

    step: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"sample step must be positive, got {self.step}")


def from_weights(w: Weights, eta: float) -> PeriodicSignal:
    """One cycle activating subsystem i for eta * alpha_i * T, in index order.

    Zero-weight subsystems are dropped from the constructed signal.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    segs = [Segment(i + 1, eta * a * w.period)
            for i, a in enumerate(w.alpha) if a > 0.0]
    if not segs:
        raise ValueError("all weights are zero; cannot build a signal")
    return PeriodicSignal(tuple(segs))


def scale(sig: PeriodicSignal, eta: float) -> PeriodicSignal:
    """Multiply every dwell time by eta; activation order is unchanged."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return PeriodicSignal(tuple(Segment(i, eta * d) for i, d in sig.segments))


def shift(sig: PeriodicSignal, gamma: float) -> PeriodicSignal:
    """The signal t -> sig(t + gamma), gamma finite and >= 0.

    Rotates the segment list and splits the segment containing gamma mod T.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"shift must be finite and nonnegative, got {gamma}")
    T = sig.period
    g = gamma % T
    if g == 0.0:
        return sig
    # locate the segment containing offset g
    acc = 0.0
    for k, (idx, dur) in enumerate(sig.segments):
        if g < acc + dur:
            head = acc + dur - g          # remainder of the split segment
            tail = g - acc                # part moved to the end
            segs = [Segment(idx, head)]
            segs += list(sig.segments[k + 1:]) + list(sig.segments[:k])
            if tail > 0.0:
                segs.append(Segment(idx, tail))
            return PeriodicSignal(tuple(segs))
        acc += dur
    # g landed exactly on the period boundary through round-off
    return sig


def permute(sig: PeriodicSignal, perm: Sequence[int]) -> PeriodicSignal:
    """Reorder segments by the given permutation of positions."""
    if sorted(perm) != list(range(len(sig.segments))):
        raise ValueError(f"{perm!r} is not a permutation of segment positions")
    return PeriodicSignal(tuple(sig.segments[p] for p in perm))


def active_index(sig: PeriodicSignal, t: float) -> int:
    """Subsystem active at finite t >= 0 (right-continuous at switches)."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    r = t % sig.period
    acc = 0.0
    for idx, dur in sig.segments:
        acc += dur
        if r < acc:
            return idx
    return sig.segments[0].index


def activation_fractions(sig: PeriodicSignal, m: Optional[int] = None) -> Weights:
    """Fraction of the period each subsystem is active, with the period."""
    m = sig.max_index if m is None else int(m)
    if m < sig.max_index:
        raise ValueError(f"m={m} is smaller than the largest segment index")
    total = np.zeros(m)
    for idx, dur in sig.segments:
        total[idx - 1] += dur
    return Weights(total / total.sum(), sig.period)


def example_signal(eta: float) -> PeriodicSignal:
    """Two-subsystem square-wave signal: 1 for 2*eta, then 2 for 2*eta."""
    return scale(PeriodicSignal((Segment(1, 2.0), Segment(2, 2.0))), eta)


# -- JSON signal specification ------------------------------------------------

def signal_to_dict(sig: PeriodicSignal) -> dict:
    return {"segments": [{"index": i, "duration": d} for i, d in sig.segments]}


def signal_from_dict(spec: dict) -> PeriodicSignal:
    """Parse {"segments": [{"index": int, "duration": real}, ..], "eta": real?}.

    The optional "eta" (default 1) scales every duration.
    """
    entries = json_objects(spec, "segments", "signal")
    try:
        segs = tuple(
            Segment(json_int(json_field(s, "index", f"segment {k}"),
                             "segment index"),
                    json_float(json_field(s, "duration", f"segment {k}"),
                               "segment duration"))
            for k, s in enumerate(entries, 1))
        eta = json_float(spec.get("eta", 1.0), '"eta"')
    except TypeError as exc:
        raise ValueError(f"signal spec value has the wrong type: {exc}") from exc
    return scale(PeriodicSignal(segs), eta)


def load_signal(path) -> PeriodicSignal:
    return signal_from_dict(read_json(path))
