"""Safety properties for Paxos (Section 5.4.2).

The property installed in the paper's experiments is the original Paxos
safety property: at most one value can be chosen, across all nodes.
Registered under the ``paxos.`` namespace in the global property registry;
``ALL_PROPERTIES`` keeps the historical check order.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...mc.global_state import GlobalState, NodeLocal
from ...properties import (
    SafetyProperty,
    SummaryProperty,
    leads_to,
    node_property,
    register_properties,
    typed_check,
    typed_states,
)
from ...runtime.address import Address
from .state import PaxosState


def _chosen(addr: Address, local: NodeLocal) -> Optional[frozenset]:
    if not isinstance(local.state, PaxosState):
        return None
    return frozenset(local.state.chosen_values)


def _agreement(summaries: dict[Address, frozenset],
               _keys: tuple) -> Iterable[tuple[Optional[Address], str]]:
    chosen: dict[int, list[Address]] = {}
    for addr, values in summaries.items():
        for value in values:
            chosen.setdefault(value, []).append(addr)
    if len(chosen) > 1:
        detail = ", ".join(
            f"value {value} chosen at {sorted(str(a) for a in addrs)}"
            for value, addrs in sorted(chosen.items())
        )
        yield None, f"more than one value chosen: {detail}"


@typed_check(PaxosState)
def _local_agreement(addr: Address, state: PaxosState,
                     timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    if len(state.chosen_values) > 1:
        yield (f"node observed multiple chosen values: "
               f"{sorted(state.chosen_values)}")


@typed_check(PaxosState)
def _accepted_implies_promised(addr: Address, state: PaxosState,
                               timers: frozenset[str],
                               gs: GlobalState) -> Iterable[str]:
    if state.accepted_value is not None and state.accepted_round > state.promised_round:
        yield (f"accepted round {state.accepted_round} exceeds promised round "
               f"{state.promised_round}")


AT_MOST_ONE_VALUE_CHOSEN = SummaryProperty(
    "paxos.at_most_one_value_chosen", _chosen, _agreement,
    "At most one value can be chosen across all nodes (the original Paxos "
    "safety property).",
    severity="critical", tags=("consensus", "agreement"))

LOCAL_AGREEMENT = node_property(
    "paxos.local_agreement", _local_agreement,
    "A single learner never observes two different chosen values.",
    severity="critical", tags=("consensus", "agreement"))

ACCEPTED_IMPLIES_PROMISED = node_property(
    "paxos.accepted_implies_promised", _accepted_implies_promised,
    "An acceptor's accepted round never exceeds its promised round.",
    severity="error", tags=("consensus",))


def _proposal_pending(gs: GlobalState) -> bool:
    states = [s for _, s in typed_states(gs, PaxosState)]
    return any(s.proposing or s.pending_proposal is not None for s in states)


def _some_value_chosen(gs: GlobalState) -> bool:
    states = [s for _, s in typed_states(gs, PaxosState)]
    return any(s.chosen_values for s in states)


#: Bounded liveness (opt-in): an active proposal reaches a decision.
EVENTUALLY_CHOSEN = leads_to(
    "paxos.eventually_chosen",
    _proposal_pending, _some_value_chosen, within=45.0,
    description="Once some node is proposing, a value must be chosen "
                "somewhere within 45 s of simulated time.",
    tags=("consensus",))

#: ``paxos.agreement`` — the same predicate as AT_MOST_ONE_VALUE_CHOSEN
#: under the classic name, registered as the falsification target of the
#: byzantine attack tooling (``python -m repro attack paxos --property
#: paxos.agreement``).  Not part of the default check set, so regular live
#: runs don't report the same violation twice.
AGREEMENT = SummaryProperty(
    "paxos.agreement", _chosen, _agreement,
    "Agreement: at most one value is ever chosen (alias of "
    "paxos.at_most_one_value_chosen used as an attack target).",
    severity="critical", tags=("consensus", "agreement", "attack-target"))

ALL_PROPERTIES: list[SafetyProperty] = [
    AT_MOST_ONE_VALUE_CHOSEN,
    LOCAL_AGREEMENT,
    ACCEPTED_IMPLIES_PROMISED,
]

register_properties(ALL_PROPERTIES + [EVENTUALLY_CHOSEN, AGREEMENT])
