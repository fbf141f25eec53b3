"""Per-layer spans recorded from outside the program.

Every traced public function is replaced at each module binding of its
name (``from .stability import monodromy`` makes ``synthesis.monodromy`` a
second binding), and the two traced methods are replaced on their classes.
Spans are aggregated in memory per name as (calls, total, self) rather than
kept one by one: a single ``design`` operation makes thousands of
``spectrum`` calls.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "linalg.mat_exp": ("swstab.linalg", "mat_exp"),
    "linalg.spectrum": ("swstab.linalg", "spectrum"),
    "linalg.solve": ("swstab.linalg", "solve"),
    "model.load_system": ("swstab.model", "load_system"),
    "model.equilibrium": ("swstab.model", "equilibrium"),
    "signals.load_signal": ("swstab.signals", "load_signal"),
    "signals.from_weights": ("swstab.signals", "from_weights"),
    "signals.active_index": ("swstab.signals", "active_index"),
    "stability.monodromy": ("swstab.stability", "monodromy"),
    "stability.is_ici_stable": ("swstab.stability", "is_ici_stable"),
    "stability.lemma4_bound_holds": ("swstab.stability", "lemma4_bound_holds"),
    "synthesis.find_stable_combination": ("swstab.synthesis",
                                          "find_stable_combination"),
    "synthesis.max_stable_eta": ("swstab.synthesis", "max_stable_eta"),
    "simulate.segment_map": ("swstab.simulate", "segment_map"),
    "simulate.affine_step": ("swstab.simulate", "AffineMap.__call__"),
    "simulate.poincare_map": ("swstab.simulate", "poincare_map"),
    "simulate.simulate": ("swstab.simulate", "simulate"),
    "simulate.simulate_norm_min": ("swstab.simulate", "simulate_norm_min"),
    "simulate.limit_cycle": ("swstab.simulate", "limit_cycle"),
    "cli.main": ("swstab.cli", "main"),
    "cli.write_csv": ("swstab.simulate", "Trajectory.write_csv"),
}

# counter -> (span, enclosing span): calls of the first made under the second
NESTED = {"synthesis.rho_evals": ("stability.monodromy",
                                  "synthesis.max_stable_eta")}

EXCEPTIONS = ("DivergenceError", "NoAttractingCycleError",
              "DegenerateCycleError")


class Tracer:
    """Installs and removes span wrappers; holds the aggregated spans."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.child = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(NESTED, 0)
        self.counts["simulate.exceptions"] = 0
        self._open = dict.fromkeys(SPANS, 0)   # depth of each open span
        self._stack = []                       # child time of open spans
        self._last_exc = None
        sim = sys.modules["swstab.simulate"]
        self._exc_types = tuple(getattr(sim, e) for e in EXCEPTIONS)
        # (owner, attribute, original, wrapper) for every binding
        self._bindings = []
        for name, (module, attr) in SPANS.items():
            cls, _, func = attr.rpartition(".")
            owner = sys.modules[module]
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, func)
            wrapper = self._wrap(name, original)
            if cls:
                self._bindings.append((owner, func, original, wrapper))
                continue
            for mod_name, mod in sys.modules.items():
                if mod_name == "swstab" or mod_name.startswith("swstab."):
                    self._bindings += [(mod, key, original, wrapper)
                                       for key, value in vars(mod).items()
                                       if value is original]

    def _wrap(self, name, fn):
        stack, open_, calls = self._stack, self._open, self.calls
        total, child = self.total, self.child
        nested = [(c, outer) for c, (inner, outer) in NESTED.items()
                  if inner == name]
        clock = time.perf_counter

        def span(*args, **kwargs):
            for counter, outer in nested:
                if open_[outer]:
                    self.counts[counter] += 1
            open_[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except self._exc_types as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.counts["simulate.exceptions"] += 1
                raise
            finally:
                dt = clock() - t0
                child[name] += stack.pop()
                open_[name] -= 1
                calls[name] += 1
                total[name] += dt
                if stack:
                    stack[-1] += dt

        return span

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Counts so far: span calls, self seconds and the extra counters."""
        out = {f"{n}.calls": c for n, c in self.calls.items()}
        out.update({f"{n}.self_s": self.total[n] - self.child[n]
                    for n in SPANS})
        out.update(self.counts)
        return out
