"""RandTree protocol implementation.

The implementation follows the behaviour described in Sections 1.2 and
5.2.1, *including the inconsistencies the paper found*:

``children_siblings`` (Figure 2)
    The UpdateSibling handler inserts the new sibling without removing stale
    entries from the children list.
``root_as_child`` (Figure 9)
    Installing a new root (NewRoot handler) does not check the children and
    sibling lists for the new root's address.
``stale_siblings`` (root has no siblings)
    A node that promotes itself to root after losing its parent keeps its
    stale sibling list.
``recovery_timer``
    A node that joins as the initial root marks itself joined without
    scheduling the recovery timer; when it later hands the root role to a
    smaller node it has a non-empty peer list and no running timer.

Each bug is controlled by a flag in :class:`RandTreeConfig`; setting the
corresponding ``fix_*`` flag applies the correction the paper suggests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ...runtime.address import Address
from ...runtime.context import HandlerContext
from ...runtime.messages import Message, Transport
from ...runtime.protocol import Protocol
from .state import RandTreeState

# Message type names.
JOIN = "Join"
JOIN_REPLY = "JoinReply"
UPDATE_SIBLING = "UpdateSibling"
NEW_ROOT = "NewRoot"
PROBE = "Probe"
PROBE_REPLY = "ProbeReply"

# Timer names.
JOIN_TIMER = "join_retry"
RECOVERY_TIMER = "recovery"


@dataclass
class RandTreeConfig:
    """RandTree parameters and bug-fix switches."""

    bootstrap: tuple[Address, ...] = ()
    max_children: int = 2
    join_retry_period: float = 5.0
    recovery_period: float = 10.0

    #: Remove the new sibling from the children list in the UpdateSibling
    #: handler (fix for the Figure 2 inconsistency).
    fix_update_sibling: bool = False
    #: Check children/sibling lists when installing a new root (Figure 9 fix).
    fix_new_root_check: bool = False
    #: Clear the sibling list when a node assumes or relinquishes the root
    #: role ("root has no siblings" fix).
    fix_clear_siblings: bool = False
    #: Always keep the recovery timer scheduled while the node is joined
    #: ("recovery timer should always run" fix).
    fix_recovery_timer: bool = False


class RandTree(Protocol):
    """The RandTree overlay tree service."""

    name = "RandTree"

    def __init__(self, config: RandTreeConfig | None = None) -> None:
        self.config = config or RandTreeConfig()

    # -- state ------------------------------------------------------------------

    def initial_state(self, addr: Address) -> RandTreeState:
        return RandTreeState(addr=addr,
                             bootstrap=tuple(self.config.bootstrap),
                             max_children=self.config.max_children)

    def on_start(self, ctx: HandlerContext, state: RandTreeState) -> None:
        ctx.set_timer(JOIN_TIMER, self.config.join_retry_period)

    def neighbors(self, state: RandTreeState) -> list[Address]:
        neighbors = set(state.children) | set(state.siblings)
        if state.parent is not None:
            neighbors.add(state.parent)
        if state.root is not None:
            neighbors.add(state.root)
        neighbors.discard(state.addr)
        return sorted(neighbors)

    def app_calls(self, state: RandTreeState) -> Sequence[tuple[str, Mapping[str, Any]]]:
        if not state.joined:
            return [("join", {})]
        return []

    # -- joining -----------------------------------------------------------------

    def handle_app(self, ctx: HandlerContext, state: RandTreeState, call: str,
                   payload: Mapping[str, Any]) -> None:
        if call == "join":
            self._try_join(ctx, state)
        elif call == "probe":
            # Application-driven liveness probe of an arbitrary member
            # (the workload generator's request type); the target answers
            # with the same ProbeReply the recovery path uses.
            target = payload.get("target")
            if target is not None and target != state.addr:
                ctx.send(target, PROBE, {}, transport=Transport.UDP)

    def handle_timer(self, ctx: HandlerContext, state: RandTreeState, timer: str) -> None:
        if timer == JOIN_TIMER:
            if not state.joined:
                self._try_join(ctx, state)
                ctx.set_timer(JOIN_TIMER, self.config.join_retry_period)
        elif timer == RECOVERY_TIMER:
            self._run_recovery(ctx, state)

    def _try_join(self, ctx: HandlerContext, state: RandTreeState) -> None:
        """Issue a Join request, or bootstrap a new tree if we are designated."""
        targets = [a for a in state.bootstrap if a != state.addr]
        if not targets or state.addr == min(state.bootstrap, default=state.addr):
            # This node is the designated first node: it joins itself and
            # becomes the root.  The buggy implementation marks itself joined
            # without scheduling the recovery timer ("Recovery Timer Should
            # Always Run", Section 5.2.1).
            state.joined = True
            state.root = state.addr
            state.parent = None
            state.refresh_peers()
            if self.config.fix_recovery_timer:
                ctx.set_timer(RECOVERY_TIMER, self.config.recovery_period)
            return
        ctx.send(targets[0], JOIN, {"origin": state.addr})

    # -- message handlers ----------------------------------------------------------

    def handle_message(self, ctx: HandlerContext, state: RandTreeState,
                       message: Message) -> None:
        handlers = {
            JOIN: self._on_join,
            JOIN_REPLY: self._on_join_reply,
            UPDATE_SIBLING: self._on_update_sibling,
            NEW_ROOT: self._on_new_root,
            PROBE: self._on_probe,
            PROBE_REPLY: self._on_probe_reply,
        }
        handler = handlers.get(message.mtype)
        if handler is not None:
            handler(ctx, state, message)

    def _on_join(self, ctx: HandlerContext, state: RandTreeState, message: Message) -> None:
        origin: Address = message.get("origin")
        hops: int = message.get("hops", 0)
        if origin == state.addr:
            return
        if hops > 8:
            # Stale root pointers can otherwise forward a Join around a cycle
            # forever; real deployments bound join forwarding the same way.
            return

        if not state.joined:
            # A fresh node receiving a Join: the sender is handing over the
            # root role (its address is larger), so this node assumes the
            # root position and adopts the sender as its first child.
            if origin > state.addr:
                state.joined = True
                state.root = state.addr
                state.parent = None
                for child in sorted(state.children):
                    if child != origin:
                        ctx.send(child, UPDATE_SIBLING, {"sibling": origin})
                state.children.add(origin)
                state.refresh_peers()
                ctx.send(origin, JOIN_REPLY,
                         {"root": state.addr,
                          "siblings": sorted(c for c in state.children if c != origin)})
                if self.config.fix_recovery_timer:
                    ctx.set_timer(RECOVERY_TIMER, self.config.recovery_period)
            return

        if not state.is_root():
            # Forward the request towards the root.
            if state.root is not None and state.root != state.addr:
                ctx.send(state.root, JOIN, {"origin": origin, "hops": hops + 1})
            return

        # We are the root.
        if origin < state.addr:
            # The joining node is more eligible: hand over the root role by
            # issuing a Join towards it (Figure 9 scenario).
            state.root = origin
            if self.config.fix_clear_siblings:
                state.siblings.clear()
            state.refresh_peers()
            ctx.send(origin, JOIN, {"origin": state.addr})
            return

        if origin in state.children:
            # Duplicate join (e.g. after a silent reset we did not observe);
            # re-acknowledge.
            ctx.send(origin, JOIN_REPLY,
                     {"root": state.addr,
                      "siblings": sorted(c for c in state.children if c != origin)})
            return

        if len(state.children) < state.max_children:
            existing = sorted(state.children)
            state.children.add(origin)
            state.refresh_peers()
            ctx.send(origin, JOIN_REPLY, {"root": state.addr, "siblings": existing})
            for child in existing:
                ctx.send(child, UPDATE_SIBLING, {"sibling": origin})
        else:
            # Degree constrained: delegate to one of the children.
            delegate = min(state.children)
            ctx.send(delegate, JOIN, {"origin": origin, "hops": hops + 1})

    def _on_join_reply(self, ctx: HandlerContext, state: RandTreeState,
                       message: Message) -> None:
        new_root: Address = message.get("root")
        siblings = set(message.get("siblings", ()))

        state.parent = message.src
        state.root = new_root
        state.joined = True
        state.siblings = set(siblings)
        if self.config.fix_update_sibling or self.config.fix_new_root_check:
            state.children -= state.siblings
            state.children.discard(new_root)
        state.refresh_peers()
        ctx.set_timer(RECOVERY_TIMER, self.config.recovery_period)

        if new_root != state.addr:
            # We (possibly) relinquished the root role: tell our children who
            # the new root is (Figure 9: node 61 sends NewRoot to 5, 65, 69).
            for child in sorted(state.children):
                if child != new_root:
                    ctx.send(child, NEW_ROOT, {"root": new_root})

    def _on_update_sibling(self, ctx: HandlerContext, state: RandTreeState,
                           message: Message) -> None:
        sibling: Address = message.get("sibling")
        if sibling == state.addr:
            return
        # BUG (Figure 2): the new sibling is inserted without removing stale
        # information from the children list, so a node that re-joined
        # through the root can appear in both lists at once.
        state.siblings.add(sibling)
        if self.config.fix_update_sibling:
            state.children.discard(sibling)
        state.refresh_peers()

    def _on_new_root(self, ctx: HandlerContext, state: RandTreeState,
                     message: Message) -> None:
        new_root: Address = message.get("root")
        # BUG (Figure 9): the children list is not checked when installing
        # information about the new root, so a node that still (stale-ly)
        # lists the new root as its child becomes inconsistent.
        state.root = new_root
        if self.config.fix_new_root_check:
            state.children.discard(new_root)
            state.siblings.discard(new_root)
        state.refresh_peers()

    def _on_probe(self, ctx: HandlerContext, state: RandTreeState,
                  message: Message) -> None:
        ctx.send(message.src, PROBE_REPLY,
                 {"root": state.root, "parent": state.parent,
                  "joined": state.joined},
                 transport=Transport.UDP)

    def _on_probe_reply(self, ctx: HandlerContext, state: RandTreeState,
                        message: Message) -> None:
        # A child whose parent pointer no longer points at us is stale.
        if message.src in state.children and message.get("parent") != state.addr:
            state.children.discard(message.src)
            state.refresh_peers()

    # -- failures --------------------------------------------------------------------

    def handle_connection_error(self, ctx: HandlerContext, state: RandTreeState,
                                peer: Address) -> None:
        lost_parent = state.parent == peer
        state.forget(peer)
        if lost_parent and state.joined:
            # Promote ourselves to root until we re-learn the topology.
            state.root = state.addr
            state.parent = None
            # BUG ("Root Has No Siblings"): the stale sibling list is kept
            # when the node promotes itself to the root position.
            if self.config.fix_clear_siblings:
                state.siblings.clear()
        state.refresh_peers()

    # -- recovery ---------------------------------------------------------------------

    def _run_recovery(self, ctx: HandlerContext, state: RandTreeState) -> None:
        for peer in sorted(state.peers):
            ctx.send(peer, PROBE, {}, transport=Transport.UDP)
        if state.joined:
            ctx.set_timer(RECOVERY_TIMER, self.config.recovery_period)
