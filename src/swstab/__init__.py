"""Stabilising switching signals for switched linear/affine systems.

Decides stabilisability via stable convex combinations, builds
bounded-frequency periodic stabilising signals, and characterises the
resulting dynamics: monodromy spectra, equilibria, limit cycles and
practical-stability radii.
"""

from .model import (SubSystem, SwitchedSystem, Weights, average_system,
                    common_equilibrium, equilibrium)
from .signals import (NormMinPolicy, PeriodicSignal, Segment,
                      activation_fractions, active_index, example_signal,
                      from_weights, permute, scale, shift)
from .stability import (StabilityReport, average_error_bound, bch_c2,
                        det_monodromy_oracle, is_ici_stable,
                        lemma4_bound_holds, monodromy)
from .synthesis import (CombinationResult, EtaSearchResult,
                        find_stable_combination, max_stable_eta)
from .simulate import (AffineMap, Cycle, Trajectory, limit_cycle,
                       poincare_map, simulate, simulate_norm_min)

__version__ = "0.1.0"

__all__ = [
    "SubSystem", "SwitchedSystem", "Weights", "average_system",
    "common_equilibrium", "equilibrium",
    "NormMinPolicy", "PeriodicSignal", "Segment", "activation_fractions",
    "active_index", "example_signal", "from_weights", "permute", "scale",
    "shift",
    "StabilityReport", "average_error_bound", "bch_c2",
    "det_monodromy_oracle", "is_ici_stable", "lemma4_bound_holds",
    "monodromy",
    "CombinationResult", "EtaSearchResult", "find_stable_combination",
    "max_stable_eta",
    "AffineMap", "Cycle", "Trajectory", "limit_cycle", "poincare_map",
    "simulate", "simulate_norm_min",
    "__version__",
]
