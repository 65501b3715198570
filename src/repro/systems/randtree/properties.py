"""Safety properties for RandTree (Sections 1.2 and 5.2.1).

Every property self-registers into the global property registry
(:mod:`repro.properties.registry`) under the ``randtree.`` namespace, so it
is selectable from experiments, the CLI and campaigns.  ``ALL_PROPERTIES``
keeps the historical check order the experiments install.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...mc.global_state import GlobalState, NodeLocal
from ...properties import (
    SafetyProperty,
    SummaryProperty,
    eventually,
    leads_to,
    node_property,
    register_properties,
    typed_check,
    typed_states,
)
from ...runtime.address import Address
from .protocol import RECOVERY_TIMER
from .state import RandTreeState


@typed_check(RandTreeState)
def _children_siblings_disjoint(addr: Address, state: RandTreeState,
                                timers: frozenset[str],
                                gs: GlobalState) -> Iterable[str]:
    overlap = set(state.children) & set(state.siblings)
    if overlap:
        yield (f"children and siblings are not disjoint: "
               f"{sorted(str(a) for a in overlap)}")


@typed_check(RandTreeState)
def _no_self_reference(addr: Address, state: RandTreeState,
                       timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    if addr in state.children:
        yield "node lists itself as a child"
    if addr in state.siblings:
        yield "node lists itself as a sibling"
    if state.parent == addr:
        yield "node is its own parent"


@typed_check(RandTreeState)
def _parent_not_child(addr: Address, state: RandTreeState,
                      timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    if state.parent is not None and state.parent in state.children:
        yield f"parent {state.parent} also appears in the children list"


def _membership(addr: Address, local: NodeLocal) -> Optional[tuple]:
    """Whether the node is root, and its children and siblings."""
    state = local.state
    if not isinstance(state, RandTreeState):
        return None
    return state.is_root(), tuple(state.children), tuple(state.siblings)


def _root_not_child_or_sibling(
        summaries: dict[Address, tuple],
        _keys: tuple) -> Iterable[tuple[Optional[Address], str]]:
    roots = [addr for addr, (is_root, _, _) in summaries.items() if is_root]
    for addr in roots:
        for other_addr, (_is_root, children, siblings) in summaries.items():
            if other_addr == addr:
                continue
            if addr in children:
                yield addr, f"root {addr} appears as a child of {other_addr}"
            if addr in siblings:
                yield addr, f"root {addr} appears as a sibling of {other_addr}"


@typed_check(RandTreeState)
def _root_has_no_siblings(addr: Address, state: RandTreeState,
                          timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    if state.is_root() and state.siblings:
        yield (f"root keeps a non-empty sibling list: "
               f"{sorted(str(a) for a in state.siblings)}")


@typed_check(RandTreeState)
def _recovery_timer_running(addr: Address, state: RandTreeState,
                            timers: frozenset[str], gs: GlobalState) -> Iterable[str]:
    if state.joined and state.peers and RECOVERY_TIMER not in timers:
        yield "node is joined with a non-empty peer list but no recovery timer"


CHILDREN_SIBLINGS_DISJOINT = node_property(
    "randtree.children_siblings_disjoint", _children_siblings_disjoint,
    "Children and sibling lists must be disjoint (Figure 2).",
    severity="critical", tags=("tree", "figure2"))

NO_SELF_REFERENCE = node_property(
    "randtree.no_self_reference", _no_self_reference,
    "A node never appears in its own children/sibling lists or as its own parent.",
    severity="error", tags=("tree",))

PARENT_NOT_CHILD = node_property(
    "randtree.parent_not_child", _parent_not_child,
    "The parent pointer never refers to one of the node's children.",
    severity="error", tags=("tree",))

ROOT_NOT_CHILD_OR_SIBLING = SummaryProperty(
    "randtree.root_not_child_or_sibling", _membership,
    _root_not_child_or_sibling,
    "A node that considers itself root must not appear as a child or sibling "
    "of any other node (Figure 9).",
    severity="critical", tags=("tree", "cross-node", "figure9"))

ROOT_HAS_NO_SIBLINGS = node_property(
    "randtree.root_has_no_siblings", _root_has_no_siblings,
    "The root keeps no sibling pointers.",
    severity="error", tags=("tree",))

RECOVERY_TIMER_RUNNING = node_property(
    "randtree.recovery_timer_running", _recovery_timer_running,
    "The recovery timer must be scheduled whenever the node is joined and "
    "has peers.",
    severity="warning", tags=("tree", "timer"))


def _some_node_unjoined(gs: GlobalState) -> bool:
    states = [s for _, s in typed_states(gs, RandTreeState)]
    return bool(states) and any(not s.joined for s in states)


def _all_nodes_joined(gs: GlobalState) -> bool:
    states = [s for _, s in typed_states(gs, RandTreeState)]
    return bool(states) and all(s.joined for s in states)


#: Bounded liveness (opt-in, not part of ALL_PROPERTIES): after any node
#: drops out of the tree, every node must be joined again within a window.
REJOINS_WITHIN_WINDOW = leads_to(
    "randtree.rejoins_within_window",
    _some_node_unjoined, _all_nodes_joined, within=120.0,
    description="After a disturbance leaves some node unjoined, the whole "
                "tree must be joined again within 120 s of simulated time.",
    tags=("tree",))

#: Bounded liveness (opt-in): the initial join phase completes in a window.
EVENTUALLY_ALL_JOINED = eventually(
    "randtree.eventually_all_joined", _all_nodes_joined, within=150.0,
    description="Every node joins the tree within 150 s of the run start.",
    tags=("tree",))

#: The property set installed in the CrystalBall experiments.
ALL_PROPERTIES: list[SafetyProperty] = [
    CHILDREN_SIBLINGS_DISJOINT,
    NO_SELF_REFERENCE,
    PARENT_NOT_CHILD,
    ROOT_NOT_CHILD_OR_SIBLING,
    ROOT_HAS_NO_SIBLINGS,
    RECOVERY_TIMER_RUNNING,
]

register_properties(
    ALL_PROPERTIES + [REJOINS_WITHIN_WINDOW, EVENTUALLY_ALL_JOINED])
