"""The one level-order state-space search, and everything it reports.

The exhaustive baseline (Figure 5) and consequence prediction (Figure 8)
are the same breadth-first search with state-hash caching; they differ
only in which successors a visited state gets, and :class:`SearchKind`
names that choice.  :class:`Explorer` holds the per-state work — visit
(dedup, property verdicts derived from the parent's, first report per
``(property, node)``) and successors — :func:`breadth_first_search` drives
it over a serial frontier, and the sharded workers of
:mod:`repro.mc.parallel` run the same :class:`Explorer` over their
shard.  The ``StopCriterion`` of the paper is a :class:`SearchBudget`.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..properties import (
    PropertyViolation,
    SafetyProperty,
    derive_all,
    listed_all,
    safety_properties,
)
from ..runtime.events import Event
from .global_state import GlobalState
from .transition import TransitionSystem

#: One frontier entry: (state, depth, event path from the start state, the
#: parent's property verdicts or None for the start state).
FrontierItem = tuple[GlobalState, int, tuple[Event, ...], Optional[tuple]]


class SearchKind(enum.Enum):
    """Which successor-enumeration rule a search run uses."""

    #: Figure 5: expand every enabled event of every visited state.
    EXHAUSTIVE = "exhaustive"
    #: Figure 8: expand internal actions only for unseen node-local states.
    CONSEQUENCE = "consequence"


@dataclass
class SearchBudget:
    """The StopCriterion: bounds on how far a search may go.

    Any bound left ``None`` is unlimited.  ``exhausted`` is evaluated before
    each state expansion, mirroring the ``while (!StopCriterion)`` loop of
    Figures 5 and 8.
    """

    max_states: Optional[int] = 20000
    max_depth: Optional[int] = None
    max_seconds: Optional[float] = None
    stop_at_first_violation: bool = False
    #: Record every visited state hash in ``stats.visited_hashes`` — used by
    #: engine-equivalence checks; off by default to keep memory flat.
    record_visited_hashes: bool = False

    def exhausted(self, stats: "SearchStats") -> bool:
        if self.max_states is not None and stats.states_visited >= self.max_states:
            return True
        if self.max_seconds is not None and stats.elapsed_seconds >= self.max_seconds:
            return True
        return False

    def depth_allowed(self, depth: int) -> bool:
        return self.max_depth is None or depth <= self.max_depth


@dataclass
class SearchStats:
    """Measurements of one search run (Figures 12, 15, 16)."""

    states_visited: int = 0
    states_enqueued: int = 0
    transitions_applied: int = 0
    duplicate_states: int = 0
    max_depth_reached: int = 0
    elapsed_seconds: float = 0.0
    #: bytes attributed to the search tree: frontier states plus hashes of
    #: explored states (the checker "does not cache previously visited
    #: states, it only stores their hashes", Section 5.5).
    peak_memory_bytes: int = 0
    explored_hash_bytes: int = 0
    #: bytes currently held by queued frontier states (kept up to date by
    #: the searches: ``peak_memory_bytes`` is its high-water mark).
    frontier_bytes: int = 0
    internal_actions_skipped: int = 0
    states_by_depth: dict[int, int] = field(default_factory=dict)
    #: hashes of every visited state, populated only when the budget sets
    #: ``record_visited_hashes``.
    visited_hashes: Optional[set[int]] = None

    def note_visited_hash(self, state_hash: int) -> None:
        if self.visited_hashes is None:
            self.visited_hashes = set()
        self.visited_hashes.add(state_hash)

    _started_at: float = field(default_factory=time.monotonic, repr=False)

    def touch_clock(self) -> None:
        self.elapsed_seconds = time.monotonic() - self._started_at

    def record_visit(self, depth: int) -> None:
        self.states_visited += 1
        self.max_depth_reached = max(self.max_depth_reached, depth)
        self.states_by_depth[depth] = self.states_by_depth.get(depth, 0) + 1
        self.touch_clock()

    def merge(self, other: "SearchStats") -> None:
        """Add the work counters of ``other`` (one shard's round, one
        portfolio strategy) to this one.  Clock and memory figures are not
        additive and stay the caller's to set."""
        self.states_visited += other.states_visited
        self.states_enqueued += other.states_enqueued
        self.transitions_applied += other.transitions_applied
        self.duplicate_states += other.duplicate_states
        self.internal_actions_skipped += other.internal_actions_skipped
        self.max_depth_reached = max(self.max_depth_reached,
                                     other.max_depth_reached)
        for depth, count in other.states_by_depth.items():
            self.states_by_depth[depth] = self.states_by_depth.get(depth, 0) + count
        for state_hash in other.visited_hashes or ():
            self.note_visited_hash(state_hash)

    def memory_per_state(self) -> float:
        """Average bytes per visited state (Figure 16)."""
        if self.states_visited == 0:
            return 0.0
        return (self.peak_memory_bytes + self.explored_hash_bytes) / self.states_visited


@dataclass(frozen=True)
class PredictedViolation:
    """A property violation reachable from the search's start state.

    The event ``path`` is the sequence of handler executions leading from
    the start state to the violating state.  It is the one record between
    a search and an installed filter: the controller remembers its path,
    replay returns the same record, and steering reads its filter off it.
    """

    violation: PropertyViolation
    path: tuple[Event, ...]
    state_hash: int

    @property
    def depth(self) -> int:
        return len(self.path)


def shallowest_reports(violations: Iterable[PredictedViolation],
                       reported: set[tuple]) -> list[PredictedViolation]:
    """One report per ``(property, node)`` not yet in ``reported`` (which is
    updated): the shallowest, in an order that does not depend on which
    shard or strategy found it first."""
    fresh = []
    for found in sorted(violations, key=lambda v: (
            v.depth, v.violation.property_name, repr(v.violation.node))):
        key = (found.violation.property_name, found.violation.node)
        if key not in reported:
            reported.add(key)
            fresh.append(found)
    return fresh


@dataclass
class SearchResult:
    """Outcome of one model-checking run."""

    violations: list[PredictedViolation]
    stats: SearchStats
    start_state: GlobalState

    @property
    def found_violation(self) -> bool:
        return bool(self.violations)

    def unique_property_names(self) -> set[str]:
        return {v.violation.property_name for v in self.violations}

    def shortest_violation(self) -> Optional[PredictedViolation]:
        if not self.violations:
            return None
        return min(self.violations, key=lambda v: v.depth)


@dataclass
class Explorer:
    """What one process has seen of a search, and the work it does per state.

    A serial search owns one explorer; each shard of a parallel search owns
    one for the states routed to it.  Counters go to the ``stats`` the
    caller passes, so a shard can account one round at a time.

    Every handler the search runs goes through the explorer's ``memo``
    (:meth:`TransitionSystem.apply`): in a breadth-first search one node's
    ``NodeLocal`` object receives the same event in every interleaving of
    the other nodes' events, and the handler is a pure function of that
    object and the event, so it runs once and every later successor shares
    its output.  A hit is exactly the fresh run's output, so the search
    visits, hashes, sizes and reports what it would without the memo.  The
    memo lives and dies with the explorer, one search.
    """

    system: TransitionSystem
    properties: Sequence[SafetyProperty]
    budget: SearchBudget
    kind: SearchKind
    explored: set[int] = field(default_factory=set)
    #: Hashes of successors already handed to the frontier: a state
    #: reachable from several parents in one wave is enqueued only once.
    queued: set[int] = field(default_factory=set)
    #: Figure 8's ``localExplored``: the key of each node-local state whose
    #: internal actions were already expanded (its digest, see
    #: :meth:`GlobalState.local_keys`) -> its timer and app-call count, so
    #: a skipped node's actions are counted without being built.
    local_explored: dict[int, int] = field(default_factory=dict)
    #: Each (property, node) combination is reported once per search: the
    #: first (shallowest) state that exhibits it.  Without this, a violation
    #: already present in the start state would be re-reported in every
    #: explored state, drowning genuinely new predictions.
    reported: set[tuple] = field(default_factory=set)
    #: The transition memo: ``(id(NodeLocal), event key)`` -> the handler
    #: run's input, event and output (see :meth:`TransitionSystem.apply`).
    memo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.properties = safety_properties(self.properties)

    def visit(self, item: FrontierItem, stats: SearchStats,
              violations: list[PredictedViolation]) -> Optional[tuple]:
        """Check the properties in one dequeued state, appending what is new
        to ``violations``; the state's verdicts, derived from its parent's,
        or None when the state was already explored."""
        state, depth, path, parent = item
        state_hash = state.state_hash()
        if state_hash in self.explored:
            stats.duplicate_states += 1
            return None
        self.explored.add(state_hash)
        if self.budget.record_visited_hashes:
            stats.note_visited_hash(state_hash)
        stats.explored_hash_bytes = 8 * len(self.explored)
        stats.record_visit(depth)
        verdicts = derive_all(self.properties, parent, state,
                              (path[-1].node,) if path else ())
        for violation in listed_all(self.properties, verdicts, state):
            key = (violation.property_name, violation.node)
            if key in self.reported:
                continue
            self.reported.add(key)
            violations.append(
                PredictedViolation(violation=violation, path=path,
                                   state_hash=state_hash)
            )
        return verdicts

    def successors(self, item: FrontierItem, verdicts: tuple,
                   stats: SearchStats) -> Iterator[FrontierItem]:
        """Yield the not-yet-seen successors of a visited state with its
        ``verdicts``, each as the frontier entry to enqueue; nothing beyond
        the depth bound."""
        state, depth, path, _ = item
        if not self.budget.depth_allowed(depth + 1):
            return
        system, memo = self.system, self.memo
        for event in self._events(state, stats):
            next_state = system.apply(state, event, memo)
            stats.transitions_applied += 1
            next_hash = next_state.state_hash()
            if next_hash in self.explored or next_hash in self.queued:
                stats.duplicate_states += 1
                continue
            self.queued.add(next_hash)
            stats.states_enqueued += 1
            stats.frontier_bytes += next_state.size_bytes()
            yield next_state, depth + 1, path + (event,), verdicts

    def _events(self, state: GlobalState, stats: SearchStats) -> list[Event]:
        if self.kind is SearchKind.EXHAUSTIVE:
            return self.system.enabled_events(state)
        # Figure 8: message handlers always, internal actions only for
        # node-local states not expanded before anywhere in the search.
        system = self.system
        events = system.network_events(state)
        for addr, key in state.local_keys():
            actions = self.local_explored.get(key)
            if actions is not None:
                stats.internal_actions_skipped += (
                    actions + system.reset_enabled(state, addr))
                continue
            internal = system.internal_events(state, addr)
            events.extend(internal)
            self.local_explored[key] = (
                len(internal) - system.reset_enabled(state, addr))
        return events


def breadth_first_search(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget],
    kind: SearchKind,
) -> SearchResult:
    """Search level by level from ``first_state`` on the calling thread."""
    budget = budget or SearchBudget()
    explorer = Explorer(system, properties, budget, kind)
    stats = SearchStats()
    violations: list[PredictedViolation] = []
    frontier: deque[FrontierItem] = deque([(first_state, 0, (), None)])
    # Hashed before it is sized, like every successor: hashing caches frozen
    # forms inside the state's addresses, which the size estimate then counts.
    explorer.queued.add(first_state.state_hash())
    stats.frontier_bytes = first_state.size_bytes()
    stats.peak_memory_bytes = stats.frontier_bytes

    while frontier and not budget.exhausted(stats):
        item = frontier.popleft()
        stats.frontier_bytes -= item[0].size_bytes()
        if (verdicts := explorer.visit(item, stats, violations)) is None:
            continue
        if violations and budget.stop_at_first_violation:
            break
        for successor in explorer.successors(item, verdicts, stats):
            frontier.append(successor)
            stats.peak_memory_bytes = max(
                stats.peak_memory_bytes,
                stats.frontier_bytes + stats.explored_hash_bytes)

    stats.touch_clock()
    return SearchResult(violations=violations, stats=stats, start_state=first_state)


def find_errors(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Run the exhaustive search of Figure 5 — the MaceMC baseline of
    Section 5.3 — from ``first_state``: every enabled event of every
    visited state, within ``budget``."""
    return breadth_first_search(system, first_state, properties, budget,
                                SearchKind.EXHAUSTIVE)


def consequence_prediction(
    system: TransitionSystem,
    current_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Run consequence prediction (Figure 8) from ``current_state``.

    Parameters
    ----------
    system:
        Transition system for the protocol under test.
    current_state:
        The live state the search starts from — in deployment this is the
        consistent neighbourhood snapshot collected by the checkpoint
        manager, not the initial system state.
    properties:
        Safety properties whose future violations should be predicted.
    budget:
        Stop criterion; runtime deployments use small state budgets so the
        prediction completes in the time it takes the real system to take a
        few steps.

    Returns
    -------
    SearchResult
        Predicted violations, each with the event path that reaches it, plus
        search statistics (states visited, depth, memory — Figures 15/16).
    """
    return breadth_first_search(system, current_state, properties, budget,
                                SearchKind.CONSEQUENCE)
