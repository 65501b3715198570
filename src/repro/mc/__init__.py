"""Model-checking substrate: system model, the search loop, properties.

This package is the MaceMC stand-in: global states (Figure 4), random
walks, the safety property framework, and the one level-order search
(:mod:`repro.mc.search`) whose :class:`SearchKind` selects between the
exhaustive search of Figure 5 and the paper's own contribution,
consequence prediction (Figure 8), which :mod:`repro.core` exports.
Nothing here imports :mod:`repro.core`.
"""

from .global_state import ErrorNotification, GlobalState, NodeLocal, Step
from ..properties.base import (
    PropertyViolation,
    SafetyProperty,
    check_all,
    node_property,
)
from .search import (
    PredictedViolation,
    SearchBudget,
    SearchKind,
    SearchResult,
    SearchStats,
    find_errors,
)
from .transition import TransitionConfig, TransitionSystem
from .falsify import MinimizationResult, greedy_minimize
from .random_walk import random_walk_search
from .parallel import (
    ParallelEngine,
    PortfolioResult,
    SearchEngine,
    SerialEngine,
    make_engine,
    run_portfolio,
)

__all__ = [
    "ErrorNotification",
    "GlobalState",
    "NodeLocal",
    "Step",
    "PropertyViolation",
    "SafetyProperty",
    "check_all",
    "node_property",
    "PredictedViolation",
    "SearchBudget",
    "SearchResult",
    "SearchStats",
    "TransitionConfig",
    "TransitionSystem",
    "find_errors",
    "MinimizationResult",
    "greedy_minimize",
    "random_walk_search",
    "ParallelEngine",
    "PortfolioResult",
    "SearchEngine",
    "SearchKind",
    "SerialEngine",
    "make_engine",
    "run_portfolio",
]
