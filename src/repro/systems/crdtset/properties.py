"""Safety and convergence properties for the CRDT replica group.

Registered under the ``crdtset.`` namespace.  The convergence check is the
CRDT literature's *strong eventual consistency* obligation restated as a
safety property: two replicas that have delivered the same operations (equal
delivery vectors, nothing buffered) must expose the same observable set and
counter value.  Stated this way it is checkable on every single global
state, which is what lets consequence prediction falsify the buggy LWW
variant instead of waiting for a liveness window to expire.
"""

from __future__ import annotations

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
from .state import CrdtState


def _replica(addr: Address, local: NodeLocal) -> Optional[tuple]:
    """Buffered ops?, delivery vector, observable set, counter value."""
    state = local.state
    if not isinstance(state, CrdtState):
        return None
    return (bool(state.pending), state.delivery_vector(), state.observable(),
            state.counter_value())


def _converged(summaries: dict[Address, tuple],
               _keys: tuple) -> Iterable[tuple[Optional[Address], str]]:
    """Every ordered pair of replicas, in sorted address order."""
    addresses = sorted(summaries)
    for addr_a in addresses:
        pending_a, vector_a, seen_a, counter_a = summaries[addr_a]
        if pending_a:
            continue
        for addr_b in addresses:
            pending_b, vector_b, seen_b, counter_b = summaries[addr_b]
            if addr_a == addr_b or pending_b or vector_a != vector_b:
                continue
            if seen_a != seen_b:
                yield addr_a, (
                    f"replicas {addr_a} and {addr_b} delivered the same ops "
                    f"but observe different sets: "
                    f"{sorted(seen_a, key=repr)} vs {sorted(seen_b, key=repr)}")
            if counter_a != counter_b:
                yield addr_a, (
                    f"replicas {addr_a} and {addr_b} delivered the same ops "
                    f"but disagree on the counter: {counter_a} vs {counter_b}")


@typed_check(CrdtState)
def _no_tombstone_resurrection(addr: Address, state: CrdtState,
                               timers: frozenset[str],
                               gs: GlobalState) -> Iterable[str]:
    for elem, tag in state.resurrected():
        yield (f"element {elem!r} is observable through add-tag {tag} "
               f"although an applied remove already covered that tag")


CONVERGED = SummaryProperty(
    "crdtset.converged", _replica, _converged,
    "Replicas with equal delivery vectors (and empty reorder buffers) must "
    "expose the same observable set and counter value.",
    severity="critical", tags=("crdt", "convergence"))

NO_TOMBSTONE_RESURRECTION = node_property(
    "crdtset.no_tombstone_resurrection", _no_tombstone_resurrection,
    "An add-tag observed by an applied remove never becomes live again.",
    severity="error", tags=("crdt",))


def _all_replicas_converged(gs: GlobalState) -> bool:
    states = [s for _, s in typed_states(gs, CrdtState)]
    if not states:
        return False
    if any(s.pending for s in states):
        return False
    reference = states[0]
    return all(
        s.delivery_vector() == reference.delivery_vector()
        and s.observable() == reference.observable()
        and s.counter_value() == reference.counter_value()
        for s in states[1:])


#: Bounded liveness (opt-in): once the workload quiesces, anti-entropy must
#: bring every replica to the same delivered set and observable state.
EVENTUALLY_CONVERGES = eventually(
    "crdtset.eventually_converges", _all_replicas_converged, within=150.0,
    description="All replicas reach identical delivery vectors, observable "
                "sets and counter values within 150 s of the run start.",
    tags=("crdt", "convergence"))

ALL_PROPERTIES: list[SafetyProperty] = [
    CONVERGED,
    NO_TOMBSTONE_RESURRECTION,
]

register_properties(ALL_PROPERTIES + [EVENTUALLY_CONVERGES])
