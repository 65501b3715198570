"""Search-engine abstraction: one interface over serial and parallel search.

CrystalBall runs the same breadth-first exploration in three places — the
exhaustive baseline of Figure 5, consequence prediction of Figure 8, and the
filter-safety re-checks.  :class:`SearchEngine` decouples *what* is
searched (a :class:`~repro.mc.transition.TransitionSystem`, a start state,
properties, a budget, a :class:`~repro.mc.search.SearchKind`) from *how*
the loop of :mod:`repro.mc.search` is executed, so the controller, the
benchmarks and the examples can switch between :class:`SerialEngine`,
:class:`~repro.mc.parallel.sharded.ParallelEngine` and
:class:`~repro.mc.parallel.portfolio.PortfolioEngine` via configuration
without any behaviour change by default.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence

from ...properties import SafetyProperty
from ..global_state import GlobalState
from ..search import (
    SearchBudget,
    SearchKind,
    SearchResult,
    breadth_first_search,
    consequence_prediction,
)
from ..transition import TransitionSystem
from .portfolio import PortfolioEngine


class SearchEngine(Protocol):
    """Anything that can execute a state-space search to completion."""

    def run(
        self,
        system: TransitionSystem,
        first_state: GlobalState,
        properties: Sequence[SafetyProperty],
        budget: Optional[SearchBudget] = None,
        *,
        kind: SearchKind = SearchKind.EXHAUSTIVE,
        event_filter: Optional[Callable] = None,
    ) -> SearchResult:
        ...  # pragma: no cover - protocol signature


class SerialEngine:
    """The seed behaviour: run the search inline on the calling thread."""

    def run(
        self,
        system: TransitionSystem,
        first_state: GlobalState,
        properties: Sequence[SafetyProperty],
        budget: Optional[SearchBudget] = None,
        *,
        kind: SearchKind = SearchKind.EXHAUSTIVE,
        event_filter: Optional[Callable] = None,
    ) -> SearchResult:
        if kind is SearchKind.CONSEQUENCE:
            # By its public name: that is the function callers, profilers
            # and the benchmark's tracer know a prediction by.
            return consequence_prediction(system, first_state, properties, budget,
                                          event_filter=event_filter)
        return breadth_first_search(system, first_state, properties, budget,
                                    kind, event_filter)

    def __repr__(self) -> str:
        return "SerialEngine()"


def make_engine(spec: Optional[str], *, metrics=None) -> SearchEngine:
    """Build a search engine from a config spec.

    Accepted specs: ``"serial"`` (or ``None``), ``"parallel"`` (one worker
    per CPU), ``"parallel:N"`` (exactly ``N`` workers) and ``"portfolio"``
    (race exhaustive search, consequence prediction and random walks).
    ``metrics`` is the run's registry, which the parallel engine profiles
    its coordination into.
    """
    name, _, arg = ("serial" if spec is None else spec).partition(":")
    name = name.strip().lower()
    if name == "serial":
        return SerialEngine()
    if name == "portfolio":
        return PortfolioEngine()
    if name == "parallel":
        from .sharded import ParallelEngine

        try:
            workers = int(arg) if arg else None
        except ValueError:
            raise ValueError(
                f"bad worker count in engine spec {spec!r}; "
                f"expected 'parallel' or 'parallel:<N>'") from None
        return ParallelEngine(num_workers=workers, metrics=metrics)
    raise ValueError(f"unknown engine spec {spec!r}")
