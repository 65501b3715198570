"""Session-guarantee and durability properties for the KV store.

Registered under the ``kvstore.`` namespace.  The two session guarantees
(read-your-writes, monotonic reads) are checked against the per-node
``stale_reads`` log the coordinator appends to when a completed read
returns a version below one of its floors — recording the observation in
state is what makes the guarantee checkable by the model checkers, the
live monitor and the immediate safety check alike (the same idiom the
Paxos state uses for learned values).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from ...mc.global_state import GlobalState, NodeLocal
from ...properties import (
    SafetyProperty,
    SummaryProperty,
    eventually,
    node_property,
    register_properties,
    typed_check,
    typed_states,
)
from ...runtime.address import Address
from .protocol import REPLICATE
from .state import NO_VERSION, KvState


@typed_check(KvState)
def _read_your_writes(addr: Address, state: KvState,
                      timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    for kind, key, floor, got in state.stale_reads:
        if kind == "read_your_writes":
            yield (f"read of {key!r} returned version {got}, below this "
                   f"client's own committed write {floor}")


@typed_check(KvState)
def _monotonic_reads(addr: Address, state: KvState,
                     timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    for kind, key, floor, got in state.stale_reads:
        if kind == "monotonic_reads":
            yield (f"read of {key!r} returned version {got}, below the "
                   f"version {floor} this client previously read")


def _durability(addr: Address, local: NodeLocal) -> Optional[tuple]:
    """Write quorum, committed writes with no repair path left (the
    coordinator no longer tracks them in ``pending_writes``), the store."""
    state = local.state
    if not isinstance(state, KvState):
        return None
    at_risk = []
    pending_writes = state.pending_writes
    for key, (version, _value) in sorted(state.committed.items()):
        entry = pending_writes.get(key)
        if entry is not None and tuple(entry["version"]) >= version:
            continue  # the reconciler is still repairing this write
        at_risk.append((key, version))
    # A store entry is replaced, never changed in place: a shallow copy
    # owns its data.
    return state.write_quorum, tuple(at_risk), dict(state.store)


def _quorum_intersection(
        summaries: dict[Address, tuple],
        replicating: tuple) -> Iterable[tuple[Optional[Address], str]]:
    """Every committed write is durable at a write quorum (or being repaired).

    Each at-risk write needs at least ``W`` replicas holding its version
    (counting copies still in flight); otherwise a crash-induced data loss
    has silently dropped below quorum durability.  Each key's stored
    versions are gathered and sorted once, so a holder count is a bisection.
    """
    inflight: dict[str, list] = {}
    for key, version in replicating:
        inflight.setdefault(key, []).append(version)
    held: dict[str, list] = {}
    for addr, (write_quorum, at_risk, _stored) in sorted(summaries.items()):
        for key, version in at_risk:
            versions = held.get(key)
            if versions is None:
                versions = held[key] = sorted([
                    store[key][0] if key in store else NO_VERSION
                    for _, _, store in summaries.values()])
            holders = len(versions) - bisect_left(versions, version)
            if holders >= write_quorum:
                continue
            pending = sum(1 for v in inflight.get(key, ()) if v >= version)
            if holders + pending < write_quorum:
                yield addr, (
                    f"committed write {key!r}@{version} is held by only "
                    f"{holders} replicas (W={write_quorum}) "
                    f"with no repair pending")


READ_YOUR_WRITES = node_property(
    "kvstore.read_your_writes", _read_your_writes,
    "A client never reads a version older than a write it already "
    "committed.",
    severity="critical", tags=("kv", "session"))

MONOTONIC_READS = node_property(
    "kvstore.monotonic_reads", _monotonic_reads,
    "Successive reads by one client never go backwards in version order.",
    severity="error", tags=("kv", "session"))

QUORUM_INTERSECTION = SummaryProperty(
    "kvstore.quorum_intersection", _durability, _quorum_intersection,
    "Every committed write stays durable at >= W replicas (counting "
    "in-flight copies) unless a repair is still pending.",
    inflight_key=lambda m: ((m.get("key"), tuple(m.get("version")))
                            if m.mtype == REPLICATE else None),
    severity="critical",
    tags=("kv", "durability"))


def _stores_agree(gs: GlobalState) -> bool:
    states = [s for _, s in typed_states(gs, KvState)]
    if not states:
        return False
    if any(s.pending_writes for s in states):
        return False
    stores = {
        tuple(sorted((key, version)
                     for key, (version, _value) in s.store.items()))
        for s in states}
    return len(stores) == 1


#: Bounded liveness (opt-in): once the workload quiesces, the reconciler
#: must drive every replica to the same versioned store.
EVENTUALLY_CONSISTENT = eventually(
    "kvstore.eventually_consistent", _stores_agree, within=180.0,
    description="All replicas converge to identical versioned stores (no "
                "repairs outstanding) within 180 s of the run start.",
    tags=("kv", "convergence"))

ALL_PROPERTIES: list[SafetyProperty] = [
    READ_YOUR_WRITES,
    MONOTONIC_READS,
    QUORUM_INTERSECTION,
]

register_properties(ALL_PROPERTIES + [EVENTUALLY_CONSISTENT])
