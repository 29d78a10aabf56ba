"""Qudit protocols that signal through the choice of measurement basis.

A numpy-based toolkit: exact constructions of the mutually unbiased
bases and entangled pair bases the protocols use, state-level round
simulation, eavesdropping strategies, seeded Monte Carlo sessions with
exact analytic cross-checks, and a small CLI (``mubsig``).

The top level exports the session API; everything else is imported
from its submodule (``mubsig.bases``, ``mubsig.protocol``, ...).
"""

from .harness import (
    EveMode,
    HarnessConfig,
    Protocol,
    analytic_outcome_distribution,
    dual_family_detection_probability,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "EveMode",
    "HarnessConfig",
    "Protocol",
    "analytic_outcome_distribution",
    "dual_family_detection_probability",
    "run_trials",
    "__version__",
]
