"""Safety properties for Bullet' (Section 5.2.3).

Registered under the ``bullet.`` namespace in the global property registry
(the historical ids predate the ``bulletprime`` system name and are kept
stable); ``ALL_PROPERTIES`` keeps the historical check order.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...mc.global_state import GlobalState, NodeLocal
from ...properties import (
    SafetyProperty,
    SummaryProperty,
    eventually,
    register_properties,
    typed_states,
)
from ...runtime.address import Address
from .protocol import DIFF
from .state import BulletState


def _announced(addr: Address, local: NodeLocal) -> Optional[tuple]:
    """Per peer, the blocks announced to it; per sender, the blocks it has."""
    state = local.state
    if not isinstance(state, BulletState):
        return None
    return (tuple([(peer, state.told(peer)) for peer in state.peers]),
            {sender: frozenset(blocks) for sender, blocks in state.view.items()})


def _believed(addr: Address, local: NodeLocal) -> Optional[tuple]:
    """The blocks the node has; per sender, the blocks it believes it has."""
    state = local.state
    if not isinstance(state, BulletState):
        return None
    return (frozenset(state.have),
            {sender: frozenset(blocks) for sender, blocks in state.view.items()})


def _file_map_consistency(
        summaries: dict[Address, tuple],
        diffs: tuple) -> Iterable[tuple[Optional[Address], str]]:
    """Sender's file map and the receiver's view of it must agree.

    A sender believes it has announced ``have - shadow[receiver]`` to each
    receiver.  Every such block must either already be in the receiver's
    view of the sender or still be carried by an in-flight Diff message from
    the sender to the receiver; otherwise the receiver will never learn
    about the block (the consequence of the cleared shadow file map).
    """
    inflight_blocks: dict[tuple[Address, Address], set[int]] = {}
    for src, dst, blocks in diffs:
        inflight_blocks.setdefault((src, dst), set()).update(blocks)

    for sender_addr, (told, _views) in summaries.items():
        for receiver_addr, announced in told:
            receiver = summaries.get(receiver_addr)
            if receiver is None:
                continue
            known = receiver[1].get(sender_addr, frozenset())
            pending = inflight_blocks.get((sender_addr, receiver_addr), set())
            missing = announced - known - pending
            if missing:
                yield sender_addr, (
                    f"sender believes receiver {receiver_addr} knows about "
                    f"blocks {sorted(missing)} but no Diff carrying them was "
                    f"delivered or is in flight")


def _view_is_subset_of_have(
        summaries: dict[Address, tuple],
        _keys: tuple) -> Iterable[tuple[Optional[Address], str]]:
    """A receiver never believes a sender has blocks the sender lacks."""
    for receiver_addr, (_have, views) in summaries.items():
        for sender_addr, blocks in views.items():
            sender = summaries.get(sender_addr)
            if sender is None:
                continue
            phantom = blocks - sender[0]
            if phantom:
                yield receiver_addr, (
                    f"receiver believes sender {sender_addr} has blocks "
                    f"{sorted(phantom)} which the sender does not have")


FILE_MAP_CONSISTENCY = SummaryProperty(
    "bullet.file_map_consistency", _announced, _file_map_consistency,
    "Sender's file map and the receiver's view of it must be identical "
    "(modulo in-flight Diffs).",
    inflight_key=lambda m: ((m.src, m.dst, tuple(m.get("blocks", ())))
                            if m.mtype == DIFF else None),
    severity="critical", tags=("dissemination", "cross-node"))

VIEW_SUBSET_OF_HAVE = SummaryProperty(
    "bullet.view_subset_of_have", _believed, _view_is_subset_of_have,
    "A receiver's view of a sender never contains blocks the sender lacks.",
    severity="error", tags=("dissemination", "cross-node"))


def _all_downloads_complete(gs: GlobalState) -> bool:
    receivers = [s for _, s in typed_states(gs, BulletState) if not s.is_source]
    return bool(receivers) and all(s.completed_at is not None for s in receivers)


#: Bounded liveness (opt-in): every receiver finishes the download.
EVENTUALLY_ALL_COMPLETE = eventually(
    "bullet.eventually_all_complete", _all_downloads_complete, within=300.0,
    description="Every non-source node completes its download within 300 s "
                "of the run start.",
    tags=("dissemination",))

ALL_PROPERTIES: list[SafetyProperty] = [
    FILE_MAP_CONSISTENCY,
    VIEW_SUBSET_OF_HAVE,
]

register_properties(ALL_PROPERTIES + [EVENTUALLY_ALL_COMPLETE])
