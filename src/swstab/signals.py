"""Periodic switching-signal algebra: scaling, shifting, permutation,
activation fractions, and the sampled norm-minimising policy descriptor."""

from __future__ import annotations

import bisect
import itertools
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

    The constructor owns the segment rules, for library and JSON callers
    alike: each index goes through model.json_int and each duration
    through model.json_float, so 1.7, "2" or True raises the loader's
    ValueError instead of converting.  ``ends`` holds the segment end
    times, the durations summed left to right, and the period is its last
    entry.
    """

    segments: tuple[Segment, ...]
    ends: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        segs = tuple(Segment(json_int(i, "segment index"),
                             json_float(d, "segment duration"))
                     for i, d in self.segments)
        if not segs:
            raise ValueError("a periodic signal needs at least one segment")
        for k, (idx, dur) in enumerate(segs):
            if idx < 1:
                raise ValueError(f"segment {k}: subsystem index must be >= 1, got {idx}")
            if not (dur > 0.0 and np.isfinite(dur)):
                raise ValueError(f"segment {k}: duration must be positive, got {dur}")
        # left to right, as simulate's walk accumulates them; the builtin
        # sum compensates from Python 3.12 on, so its last bit would depend
        # on the interpreter
        ends = tuple(itertools.accumulate(dur for _, dur in segs))
        if not np.isfinite(ends[-1]):
            raise ValueError(f"the durations sum to a period of {ends[-1]}; "
                             "the period must be finite")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "ends", ends)

    @property
    def period(self) -> float:
        return self.ends[-1]


@dataclass(frozen=True)
class NormMinPolicy:
    """Sampled-time norm-minimising state feedback.

    At each step of length ``step`` the subsystem minimising x^T (A_i x + b_i)
    is selected; ties go to the lowest index.
    """

    step: float

    def __post_init__(self):
        step = json_float(self.step, "sample step")
        if not step > 0.0:
            raise ValueError(f"sample step must be positive, got {step}")
        object.__setattr__(self, "step", step)


def from_weights(w: Weights, eta: float) -> PeriodicSignal:
    """One cycle activating subsystem i for eta * alpha_i * T, in index order.

    Zero-weight subsystems are dropped from the constructed signal; Weights
    sum to one, so at least one is left.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return PeriodicSignal(tuple(Segment(i + 1, eta * a * w.period)
                                for i, a in enumerate(w.alpha) if a > 0.0))


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
    g = gamma % sig.period        # in [0, period): below the last end
    if g == 0.0:
        return sig
    # the segment containing offset g: the first that ends after it
    k = bisect.bisect_right(sig.ends, g)
    idx = sig.segments[k].index
    tail = g - sig.ends[k - 1] if k else g    # part moved to the end
    segs = [Segment(idx, sig.ends[k] - g)]    # remainder of the split segment
    segs += list(sig.segments[k + 1:]) + list(sig.segments[:k])
    if tail > 0.0:
        segs.append(Segment(idx, tail))
    return PeriodicSignal(tuple(segs))


def permute(sig: PeriodicSignal, perm: Sequence[int]) -> PeriodicSignal:
    """Reorder segments by the given permutation of positions."""
    if sorted(perm) != list(range(len(sig.segments))):
        raise ValueError(f"{perm!r} is not a permutation of segment positions")
    return PeriodicSignal(tuple(sig.segments[p] for p in perm))


def active_index(sig: PeriodicSignal, t: float) -> int:
    """Subsystem active at finite t >= 0 (right-continuous at switches)."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    r = t % sig.period            # in [0, period): below the last end
    return sig.segments[bisect.bisect_right(sig.ends, r)].index


def activation_fractions(sig: PeriodicSignal, m: Optional[int] = None) -> Weights:
    """Fraction of the period each subsystem is active, with the period."""
    top = max(i for i, _ in sig.segments)
    m = top if m is None else json_int(m, "m")
    if m < top:
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
        sig = PeriodicSignal(tuple(
            (json_field(s, "index", f"segment {k}"),
             json_field(s, "duration", f"segment {k}"))
            for k, s in enumerate(entries, 1)))
        eta = json_float(spec.get("eta", 1.0), '"eta"')
    except TypeError as exc:
        raise ValueError(f"signal spec value has the wrong type: {exc}") from exc
    return scale(sig, eta)


def load_signal(path) -> PeriodicSignal:
    return signal_from_dict(read_json(path))
