"""Switched linear/affine system models, convex combinations and equilibria."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .linalg import DimensionError, SingularMatrixError

WEIGHT_SUM_TOL = 1e-12
DEFAULT_EQUILIBRIUM_TOL = 1e-9


class EquilibriumError(Exception):
    """A subsystem matrix is singular, so -A^{-1} b is undefined."""

    def __init__(self, message: str, subsystem: Optional[int] = None):
        super().__init__(message)
        self.subsystem = subsystem


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubSystem:
    """One mode of the switched system: dx/dt = A x + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = linalg.as_square(self.A)
        b = linalg.as_vector(self.b)
        if b.shape[0] != A.shape[0]:
            raise DimensionError(
                f"b has length {b.shape[0]}, expected {A.shape[0]}")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SwitchedSystem:
    """An ordered family of subsystems sharing a state dimension."""

    subsystems: tuple[SubSystem, ...]

    def __post_init__(self):
        subs = tuple(self.subsystems)
        if not subs:
            raise ValueError("a switched system needs at least one subsystem")
        n = subs[0].n
        for k, sub in enumerate(subs):
            if sub.n != n:
                raise DimensionError(
                    f"subsystem {k + 1} has dimension {sub.n}, expected {n}")
        object.__setattr__(self, "subsystems", subs)

    @property
    def m(self) -> int:
        return len(self.subsystems)

    @property
    def n(self) -> int:
        return self.subsystems[0].n

    def subsystem(self, index: int) -> SubSystem:
        """The subsystem that a signal's 1-based index names."""
        if not 1 <= index <= self.m:
            raise IndexError(
                f"signal references subsystem {index}, system has {self.m}")
        return self.subsystems[index - 1]

    def state(self, x0) -> np.ndarray:
        """x0 as a state of this system: a new finite float vector of
        length n, or DimensionError (wrong length) or ValueError (an entry
        not finite)."""
        x = np.array(x0, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(
                f"initial condition {x.tolist()} has wrong dimension")
        if not np.isfinite(x).all():
            raise ValueError(f"initial condition {x.tolist()} is not finite")
        return x

    def linear_part(self) -> "SwitchedSystem":
        """The same system with every affine drift zeroed."""
        return SwitchedSystem(tuple(
            SubSystem(sub.A, np.zeros(self.n)) for sub in self.subsystems))


@dataclass(frozen=True)
class Weights:
    """Normalised activation fractions on the simplex plus a cycle period.

    The fractions always sum to one; the time scale lives entirely in the
    period, so scaling a signal is a single multiplication of the period.
    """

    alpha: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        a = linalg.as_vector(self.alpha)
        if a.size == 0:
            raise ValueError("weights must be nonempty")
        if np.any(a < 0.0):
            raise ValueError(f"weights must be nonnegative, got {a}")
        if abs(float(a.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got sum {a.sum()!r}")
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be finite and positive, "
                             f"got {self.period}")
        object.__setattr__(self, "alpha", _freeze(a))
        object.__setattr__(self, "period", float(self.period))

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


def average_system(sys: SwitchedSystem, w: Weights) -> SubSystem:
    """Convex combination (sum_i alpha_i A_i, sum_i alpha_i b_i); raises
    linalg.NumericalError where it overflows."""
    if w.m != sys.m:
        raise DimensionError(
            f"weights have length {w.m}, system has {sys.m} subsystems")
    with np.errstate(over="ignore", invalid="ignore"):
        A = sum(a * sub.A for a, sub in zip(w.alpha, sys.subsystems))
        b = sum(a * sub.b for a, sub in zip(w.alpha, sys.subsystems))
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise linalg.NumericalError("the average system sum_i alpha_i "
                                    "(A_i, b_i) overflows")
    return SubSystem(A, b)


def equilibrium(sub: SubSystem) -> np.ndarray:
    """Unique equilibrium -A^{-1} b of an affine subsystem."""
    try:
        return linalg.solve(sub.A, -sub.b)
    except SingularMatrixError as exc:
        raise EquilibriumError(
            f"singular dynamics matrix, no unique equilibrium: {exc}") from exc


def common_equilibrium(sys: SwitchedSystem,
                       tol: float = DEFAULT_EQUILIBRIUM_TOL) -> Optional[np.ndarray]:
    """Shared equilibrium of all subsystems, or None if they disagree.

    Each equilibrium must lie within tol of the first one in the infinity
    norm; the returned point is the mean of the per-subsystem equilibria.
    A negative, infinite or NaN tol raises ValueError.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(
            f"common_equilibrium tol must be finite and >= 0, got {tol}")
    points = []
    for k, sub in enumerate(sys.subsystems):
        try:
            points.append(equilibrium(sub))
        except EquilibriumError as exc:
            raise EquilibriumError(
                f"subsystem {k + 1}: {exc}", subsystem=k + 1) from exc
    for p in points[1:]:
        if np.max(np.abs(p - points[0])) > tol:
            return None
    return np.mean(points, axis=0)


# -- JSON system specification ------------------------------------------------

def json_int(value, name: str) -> int:
    """An integer field of a JSON spec.  2 and 2.0 give 2; a boolean, a
    string or a value with a fractional part raises ValueError instead of
    converting."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return int(value)


def json_float(value, name: str) -> float:
    """A real field of a JSON spec; a boolean or a string raises ValueError
    instead of converting."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def json_array(value, name: str) -> np.ndarray:
    """A field of a JSON spec that nests lists of numbers, as a float
    array; a boolean or a string anywhere in it raises ValueError instead
    of converting."""
    pending = [value]       # a loop, not recursion: JSON nests deeply
    while pending:
        v = pending.pop()
        if isinstance(v, (bool, str)):
            kind = "strings" if isinstance(v, str) else "booleans"
            raise ValueError(f"{name} must hold numbers, not {kind}")
        if isinstance(v, list):
            pending.extend(v)
    return np.asarray(value, dtype=float)


def json_objects(spec, key: str, kind: str) -> list:
    """spec[key], where a spec of this kind must be a JSON object whose key
    holds a list of objects; otherwise ValueError."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f'{kind} spec must be a JSON object with "{key}"')
    entries = spec[key]
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f'"{key}" must be a list of objects')
    return entries


def json_field(entry: dict, key: str, where: str):
    """entry[key]; a missing key raises ValueError naming it and where."""
    if key not in entry:
        raise ValueError(f'{where} has no "{key}"')
    return entry[key]


def system_to_dict(sys: SwitchedSystem) -> dict:
    return {
        "n": sys.n,
        "subsystems": [
            {"A": sub.A.tolist(), "b": sub.b.tolist()}
            for sub in sys.subsystems
        ],
    }


def system_from_dict(spec: dict) -> SwitchedSystem:
    """Parse {"n": int, "subsystems": [{"A": [[..]], "b": [..]?}, ..]}.

    An omitted "b" means the zero vector (linear subsystem).
    """
    entries = json_objects(spec, "subsystems", "system")
    subs = []
    try:
        for k, entry in enumerate(entries, 1):
            where = f"subsystem {k}"
            A = json_array(json_field(entry, "A", where), f'{where} "A"')
            b = (json_array(entry["b"], f'{where} "b"') if "b" in entry
                 else np.zeros(A.shape[0]))
            subs.append(SubSystem(A, b))
        declared = json_int(spec["n"], '"n"') if "n" in spec else None
    except TypeError as exc:
        raise ValueError(f"system spec value has the wrong type: {exc}") from exc
    sys_ = SwitchedSystem(tuple(subs))
    if declared is not None and declared != sys_.n:
        raise ValueError(
            f'declared dimension n={spec["n"]} does not match matrices (n={sys_.n})')
    return sys_


def load_system(path) -> SwitchedSystem:
    with open(path) as fh:
        return system_from_dict(json.load(fh))
