"""Portfolio search: race complementary strategies from one snapshot.

Section 5.3 of the paper compares three ways of spending a model-checking
budget — exhaustive breadth-first search, consequence prediction, and deep
random walks — and finds they surface different bugs.  A portfolio run
launches all of them concurrently from the same snapshot under one shared
wall-clock budget, in separate forked processes, and collects the union of
everything found before the deadline; :class:`PortfolioEngine` is that
race as the controller's ``engine="portfolio"``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ...properties import SafetyProperty
from ..global_state import GlobalState
from ..random_walk import random_walk_search
from ..search import (
    PredictedViolation,
    SearchBudget,
    SearchKind,
    SearchResult,
    SearchStats,
    consequence_prediction,
    find_errors,
    shallowest_reports,
)
from ..transition import TransitionSystem

#: A named search strategy: (name, callable returning a SearchResult).
Strategy = tuple[str, Callable[[], SearchResult]]
#: Seeded random walks in a :class:`PortfolioEngine` run, and the
#: wall-clock deadline its strategies share (seconds).
PORTFOLIO_WALKS = 2
PORTFOLIO_WALL_CLOCK = 5.0


@dataclass
class PortfolioResult:
    """Outcome of one portfolio run."""

    #: Per-strategy results; strategies killed at the deadline are absent.
    results: dict[str, SearchResult] = field(default_factory=dict)
    #: Strategies that did not finish before the deadline.
    unfinished: tuple[str, ...] = ()
    #: Tracebacks of strategies that raised instead of returning a result.
    errors: dict[str, str] = field(default_factory=dict)
    #: First strategy whose result contained a violation.
    winner: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def found_violation(self) -> bool:
        return any(r.found_violation for r in self.results.values())

    def union_violations(self) -> list[PredictedViolation]:
        """All predicted violations, one per (property, node), shallowest
        (then first strategy by name) first."""
        return shallowest_reports(
            (violation for name in sorted(self.results)
             for violation in self.results[name].violations), set())

    def merged_result(self, start_state: GlobalState) -> SearchResult:
        """Fold the portfolio into one :class:`SearchResult` (the shape the
        controller consumes)."""
        stats = SearchStats()
        for result in self.results.values():
            stats.merge(result.stats)
        stats.elapsed_seconds = self.elapsed_seconds
        return SearchResult(violations=self.union_violations(), stats=stats,
                            start_state=start_state)


def default_strategies(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: SearchBudget,
    *,
    walks: int = 2,
    walk_depth: int = 30,
    seed: int = 0,
) -> list[Strategy]:
    """Exhaustive search + consequence prediction + ``walks`` random walks."""
    strategies: list[Strategy] = [
        ("exhaustive",
         lambda: find_errors(system, first_state, properties, budget)),
        ("consequence",
         lambda: consequence_prediction(system, first_state, properties, budget)),
    ]
    for i in range(walks):
        walk_seed = seed + i
        strategies.append((
            f"walk-{walk_seed}",
            lambda walk_seed=walk_seed: random_walk_search(
                system, first_state, properties, walks=50,
                walk_depth=walk_depth, seed=walk_seed, budget=budget),
        ))
    return strategies


def run_portfolio(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
    *,
    wall_clock_seconds: Optional[float] = None,
    walks: int = 2,
    walk_depth: int = 30,
    seed: int = 0,
    strategies: Optional[Sequence[Strategy]] = None,
) -> PortfolioResult:
    """Race search strategies from ``first_state`` under a shared deadline.

    ``wall_clock_seconds`` caps the whole portfolio; it is also folded into
    each strategy's own budget (as ``max_seconds``) so well-behaved searches
    stop themselves.  Strategies still running at the deadline are
    terminated and listed in :attr:`PortfolioResult.unfinished`; strategies
    that raise are reported in :attr:`PortfolioResult.errors`.

    Without fork support the strategies run sequentially; the deadline is
    checked between strategies, so a strategy started close to the deadline
    can overshoot it by up to its own ``max_seconds``.
    """
    budget = budget or SearchBudget()
    if wall_clock_seconds is not None:
        per_strategy_seconds = (wall_clock_seconds if budget.max_seconds is None
                                else min(budget.max_seconds, wall_clock_seconds))
        budget = dataclasses.replace(budget, max_seconds=per_strategy_seconds)
    if strategies is None:
        strategies = default_strategies(system, first_state, properties, budget,
                                        walks=walks, walk_depth=walk_depth,
                                        seed=seed)

    started = time.monotonic()
    if "fork" not in multiprocessing.get_all_start_methods():
        return _run_sequential(strategies, started, wall_clock_seconds)

    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.Queue()
    processes: dict[str, multiprocessing.Process] = {}
    for name, runner in strategies:
        proc = ctx.Process(target=_strategy_main,
                           args=(name, runner, result_queue), daemon=True)
        proc.start()
        processes[name] = proc

    outcome = PortfolioResult()
    pending = set(processes)
    deadline = (started + wall_clock_seconds
                if wall_clock_seconds is not None else None)
    while pending:
        timeout = 0.5
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - time.monotonic()))
        try:
            message = result_queue.get(timeout=max(timeout, 0.01))
        except queue_module.Empty:
            if deadline is not None and time.monotonic() >= deadline:
                break
            if all(not processes[name].is_alive() for name in pending):
                break  # crashed strategies will never report
            continue
        name, result, error = message
        pending.discard(name)
        if error is not None:
            outcome.errors[name] = error
            continue
        outcome.results[name] = result
        if result.found_violation and outcome.winner is None:
            outcome.winner = name

    for name in pending:
        if processes[name].is_alive():
            processes[name].terminate()
    for proc in processes.values():
        proc.join(timeout=2.0)
    outcome.unfinished = tuple(sorted(pending))
    outcome.elapsed_seconds = time.monotonic() - started
    return outcome


def _run_sequential(strategies, started, wall_clock_seconds) -> PortfolioResult:
    outcome = PortfolioResult()
    skipped = []
    for name, runner in strategies:
        if (wall_clock_seconds is not None
                and time.monotonic() - started >= wall_clock_seconds):
            skipped.append(name)
            continue
        try:
            result = runner()
        except Exception:
            outcome.errors[name] = traceback.format_exc()
            continue
        outcome.results[name] = result
        if result.found_violation and outcome.winner is None:
            outcome.winner = name
    outcome.unfinished = tuple(sorted(skipped))
    outcome.elapsed_seconds = time.monotonic() - started
    return outcome


class PortfolioEngine:
    """The default strategies raced from the start state and folded into one
    result.  Each strategy has its own kind, so ``kind`` is not read."""

    def run(self, system: TransitionSystem, first_state: GlobalState,
            properties: Sequence[SafetyProperty],
            budget: Optional[SearchBudget] = None, *,
            kind: Optional[SearchKind] = None) -> SearchResult:
        return run_portfolio(
            system, first_state, properties, budget,
            wall_clock_seconds=PORTFOLIO_WALL_CLOCK,
            walks=PORTFOLIO_WALKS).merged_result(first_state)


def _strategy_main(name: str, runner: Callable[[], SearchResult],
                   result_queue) -> None:
    try:
        result_queue.put((name, runner(), None))
    except Exception:
        result_queue.put((name, None, traceback.format_exc()))
