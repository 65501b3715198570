"""Sharded-frontier parallel breadth-first search.

The state space is partitioned across a pool of worker processes by
``state_hash() % num_workers``: each worker owns one shard, keeps the
explored-hash set for it, and is the only process that ever visits a state
of that shard.  Workers visit and expand the states of their shard with
the same :class:`~repro.mc.search.Explorer` the serial loop uses, route
every successor to its owner, and hand the batches back through the
coordinator at round boundaries (batched cross-shard handoff).  The
coordinator enforces the :class:`~repro.mc.search.SearchBudget`, merges
per-worker statistics into one :class:`~repro.mc.search.SearchStats`, and
deduplicates reported violations exactly like the serial search does.

The search is level-synchronised: all states of depth ``d`` are visited
before any state of depth ``d + 1`` is dispatched, so reported depths are
minimal and a depth-bounded parallel search visits exactly the states the
serial breadth-first search visits.  Within one level, visit order across
shards is nondeterministic; with ``stop_at_first_violation`` the search
stops at the end of the level that produced a violation instead of
mid-expansion.

Workers are forked per run, so the explorer — transition system, safety
properties (which close over protocol code and are therefore not picklable)
and event filter — is inherited rather than serialised; only frontier
states, successor batches and results cross process boundaries.  Because
the children inherit the parent's hash seed, ``state_hash()`` values — and
therefore shard assignment — agree across the pool.

For consequence prediction (Figure 8) the ``localExplored`` set is global
to the search; workers exchange newly-expanded local-state hashes through
the coordinator at round boundaries.  Two workers can therefore expand the
internal actions of the same node-local state within one round, so the
parallel search explores a *superset* of the serial pruning — every
reported path is still a real handler sequence, it is only the pruning
that is slightly weaker.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from collections import defaultdict
from typing import Callable, Optional, Sequence

from ...properties import SafetyProperty
from ..global_state import GlobalState
from ..search import (
    Explorer,
    FrontierItem,
    PredictedViolation,
    SearchBudget,
    SearchKind,
    SearchResult,
    SearchStats,
    shallowest_reports,
)
from ..transition import TransitionSystem
from .engine import SerialEngine

#: Maximum frontier items dispatched to one worker per round: budgets are
#: checked between rounds, larger batches amortise inter-process transfer.
ROUND_BATCH = 4000


class ParallelEngine:
    """Execute searches across a sharded-frontier worker pool.

    Parameters
    ----------
    num_workers:
        Shard count; defaults to the machine's CPU count.
    metrics:
        Optional ``repro.obs`` :class:`~repro.obs.metrics.MetricsRegistry`.
        When given (the controller passes its run's registry through
        :func:`~repro.mc.parallel.engine.make_engine`), every search
        profiles its coordination overhead into ``parallel.*`` metrics:
        fork time, per-round barrier waits, cross-shard handoff volume.
    """

    def __init__(self, num_workers: Optional[int] = None, *,
                 metrics=None) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers if num_workers is not None \
            else (os.cpu_count() or 1)
        self.metrics = metrics

    def __repr__(self) -> str:
        return f"ParallelEngine(num_workers={self.num_workers})"

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
        if "fork" not in multiprocessing.get_all_start_methods():
            # Properties close over protocol code and cannot be pickled to
            # spawn-based workers; without fork the serial engine is the
            # only sound executor.
            return SerialEngine().run(system, first_state, properties, budget,
                                      kind=kind, event_filter=event_filter)
        budget = budget or SearchBudget()
        # Built once here and inherited by every forked worker, each of
        # which then fills its own copy with the states of its shard.
        explorer = Explorer(system, properties, budget, kind, event_filter)
        return _coordinate(explorer, first_state, self.num_workers,
                           self.metrics)


# --------------------------------------------------------------------- coordinator


def _coordinate(explorer: Explorer, first_state: GlobalState, num_workers: int,
                metrics=None) -> SearchResult:
    budget = explorer.budget
    ctx = multiprocessing.get_context("fork")
    task_queues = [ctx.SimpleQueue() for _ in range(num_workers)]
    result_queue = ctx.Queue()
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(wid, num_workers, explorer, task_queues[wid], result_queue),
            daemon=True,
        )
        for wid in range(num_workers)
    ]
    fork_started = time.perf_counter()
    for proc in workers:
        proc.start()
    if metrics is not None:
        metrics.inc("parallel.searches")
        metrics.observe("parallel.fork_seconds",
                        time.perf_counter() - fork_started)

    stats = SearchStats()
    violations: list[PredictedViolation] = []
    reported: set[tuple] = set()
    explored_bytes = [0] * num_workers
    # Consequence prediction's localExplored set, merged across shards at
    # round boundaries.
    global_locals: set[int] = set()
    locals_known: list[set[int]] = [set() for _ in range(num_workers)]

    current: list[list[FrontierItem]] = [[] for _ in range(num_workers)]
    next_level: list[list[FrontierItem]] = [[] for _ in range(num_workers)]
    current[first_state.state_hash() % num_workers].append(
        (first_state, 0, (), None))
    # Maintained incrementally: workers report the bytes of the successors
    # they emit, the coordinator subtracts each dispatched batch (state
    # sizes are cached, so the per-batch sum is cheap attribute access).
    stats.frontier_bytes = first_state.size_bytes()

    try:
        while True:
            stats.peak_memory_bytes = max(
                stats.peak_memory_bytes,
                stats.frontier_bytes + stats.explored_hash_bytes)
            stats.touch_clock()
            if budget.exhausted(stats):
                break

            if all(not shard for shard in current):
                if violations and budget.stop_at_first_violation:
                    break
                if all(not shard for shard in next_level):
                    break
                current, next_level = next_level, [[] for _ in range(num_workers)]
                continue

            batches = [shard[:ROUND_BATCH] for shard in current]
            if budget.max_states is not None:
                _trim(batches, budget.max_states - stats.states_visited)
            dispatched: list[int] = []
            dispatched_items = 0
            dispatched_bytes = 0
            for wid, batch in enumerate(batches):
                if not batch:
                    continue
                del current[wid][:len(batch)]
                batch_bytes = sum(item[0].size_bytes() for item in batch)
                stats.frontier_bytes -= batch_bytes
                dispatched_items += len(batch)
                dispatched_bytes += batch_bytes
                local_delta = global_locals - locals_known[wid]
                locals_known[wid] |= local_delta
                task_queues[wid].put(("round", batch, sorted(local_delta)))
                dispatched.append(wid)

            barrier_started = time.perf_counter()
            round_violations: list[PredictedViolation] = []
            for reply in _collect(result_queue, workers, len(dispatched)):
                wid, outgoing, found, delta, new_locals = reply
                explored_bytes[wid] = delta.explored_hash_bytes
                stats.merge(delta)
                stats.frontier_bytes += delta.frontier_bytes
                round_violations.extend(found)
                global_locals.update(new_locals)
                locals_known[wid].update(new_locals)
                for owner, items in outgoing.items():
                    next_level[owner].extend(items)
            stats.explored_hash_bytes = sum(explored_bytes)
            if metrics is not None:
                metrics.inc("parallel.rounds")
                metrics.inc("parallel.handoff_items", dispatched_items)
                metrics.inc("parallel.handoff_bytes", dispatched_bytes)
                metrics.observe("parallel.barrier_wait_seconds",
                                time.perf_counter() - barrier_started)

            # The serial searches report the first (shallowest) state per
            # (property, node); several shards can hit one key in a round.
            violations.extend(shallowest_reports(round_violations, reported))
    finally:
        for task_queue in task_queues:
            task_queue.put(("stop",))
        for proc in workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()

    stats.touch_clock()
    return SearchResult(violations=violations, stats=stats, start_state=first_state)


def _trim(batches: list[list[FrontierItem]], remaining: int) -> None:
    """Cap the total items dispatched this round at ``remaining`` visits."""
    for wid, batch in enumerate(batches):
        take = max(0, min(len(batch), remaining))
        batches[wid] = batch[:take]
        remaining -= take


def _collect(result_queue, workers, expected: int):
    """Yield ``expected`` round replies, watching for dead workers."""
    received = 0
    while received < expected:
        try:
            message = result_queue.get(timeout=1.0)
        except queue_module.Empty:
            dead = [p for p in workers if not p.is_alive()]
            if dead:
                raise RuntimeError(
                    f"{len(dead)} search worker(s) died mid-round")
            continue
        if message[0] == "error":
            raise RuntimeError(f"search worker failed:\n{message[2]}")
        yield message[1:]
        received += 1


# ------------------------------------------------------------------------- worker


def _worker_main(worker_id: int, num_workers: int, explorer: Explorer,
                 task_queue, result_queue) -> None:
    try:
        while True:
            message = task_queue.get()
            if message[0] == "stop":
                return
            _, items, shared_locals = message
            explorer.local_explored.update(shared_locals)
            result_queue.put(
                _process_round(worker_id, num_workers, explorer, items))
    except Exception:  # pragma: no cover - surfaced in the coordinator
        result_queue.put(("error", worker_id, traceback.format_exc()))


def _process_round(worker_id: int, num_workers: int, explorer: Explorer,
                   items: Sequence[FrontierItem]) -> tuple:
    """Visit one batch of this shard and route every successor to its owner.

    The reply's ``SearchStats`` counts this round only; its
    ``frontier_bytes`` is the size of the successors emitted and its
    ``explored_hash_bytes`` the shard's whole explored set.
    """
    outgoing: dict[int, list[FrontierItem]] = defaultdict(list)
    found: list[PredictedViolation] = []
    delta = SearchStats()
    locals_before = set(explorer.local_explored)
    for item in items:
        if (verdicts := explorer.visit(item, delta, found)) is None:
            continue
        for successor in explorer.successors(item, verdicts, delta):
            outgoing[successor[0].state_hash() % num_workers].append(successor)
    delta.explored_hash_bytes = 8 * len(explorer.explored)
    return ("round_done", worker_id, dict(outgoing), found, delta,
            explorer.local_explored - locals_before)
