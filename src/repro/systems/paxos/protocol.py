"""Paxos protocol implementation (Section 5.4.2).

A minimal single-instance Paxos in which every node plays proposer,
acceptor and learner (as in the paper's baseline Mace Paxos).  Two bugs can
be injected, matching the paper's evaluation:

``bug1`` (from the WiDS-checker study [28])
    When the leader has gathered a majority of promises it builds the Accept
    request from the value of the *last* Promise received instead of the
    Promise with the highest accepted round number.
``bug2`` (inspired by "Paxos made live" [4])
    An acceptor does not write its promise to stable storage, so the promise
    does not survive a crash-and-reboot.

The corresponding ``inject_bug1`` / ``inject_bug2`` flags default to False
(correct behaviour); the evaluation enables them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ...runtime.address import Address
from ...runtime.context import HandlerContext
from ...runtime.messages import Message
from ...runtime.protocol import Protocol
from .state import NO_ROUND, PaxosState, Round

PREPARE = "Prepare"
PROMISE = "Promise"
ACCEPT = "Accept"
LEARN = "Learn"


@dataclass
class PaxosConfig:
    """Paxos membership and fault-injection switches."""

    peers: tuple[Address, ...] = ()
    #: Leader picks the value of the last promise instead of the
    #: highest-round one (safety bug).
    inject_bug1: bool = False
    #: Acceptor promises are not written to stable storage and are lost on
    #: reset (safety bug).
    inject_bug2: bool = False


class Paxos(Protocol):
    """Single-instance Paxos with all roles on every node."""

    name = "Paxos"

    def __init__(self, config: Optional[PaxosConfig] = None) -> None:
        self.config = config or PaxosConfig()

    # -- state -------------------------------------------------------------------

    def initial_state(self, addr: Address) -> PaxosState:
        return PaxosState(addr=addr, peers=tuple(self.config.peers))

    def reset_state(self, addr: Address, old_state: PaxosState) -> PaxosState:
        fresh = self.initial_state(addr)
        if isinstance(old_state, PaxosState) and not self.config.inject_bug2:
            # Correct behaviour: the acceptor's promise and accepted value
            # survive the reboot because they were written to stable storage.
            fresh.promised_round = old_state.persisted_promised_round
            fresh.persisted_promised_round = old_state.persisted_promised_round
            fresh.accepted_round = old_state.accepted_round
            fresh.accepted_value = old_state.accepted_value
        return fresh

    def neighbors(self, state: PaxosState) -> list[Address]:
        return sorted(a for a in state.peers if a != state.addr)

    def app_calls(self, state: PaxosState) -> Sequence[tuple[str, Mapping[str, Any]]]:
        if state.pending_proposal is not None and not state.proposing:
            return [("propose", {"value": state.pending_proposal})]
        return []

    # -- application interface ------------------------------------------------------

    def handle_app(self, ctx: HandlerContext, state: PaxosState, call: str,
                   payload: Mapping[str, Any]) -> None:
        if call == "submit":
            state.pending_proposal = payload.get("value")
        elif call == "propose":
            value = payload.get("value", state.pending_proposal)
            if value is not None:
                state.pending_proposal = value
                self._start_round(ctx, state)

    def _start_round(self, ctx: HandlerContext, state: PaxosState) -> None:
        state.round_counter += 1
        state.current_round = (state.round_counter, state.addr.host)
        state.proposing = True
        state.accept_sent = False
        state.promises = {}
        state.last_promise = (NO_ROUND, None)
        for peer in state.peers:
            ctx.send(peer, PREPARE, {"round": state.current_round})

    # -- message handlers --------------------------------------------------------------

    def handle_message(self, ctx: HandlerContext, state: PaxosState,
                       message: Message) -> None:
        handlers = {
            PREPARE: self._on_prepare,
            PROMISE: self._on_promise,
            ACCEPT: self._on_accept,
            LEARN: self._on_learn,
        }
        handler = handlers.get(message.mtype)
        if handler is not None:
            handler(ctx, state, message)

    def _on_prepare(self, ctx: HandlerContext, state: PaxosState,
                    message: Message) -> None:
        round_: Round = tuple(message.get("round"))
        if round_ <= state.promised_round:
            return
        state.promised_round = round_
        if not self.config.inject_bug2:
            state.persisted_promised_round = round_
        ctx.send(message.src, PROMISE,
                 {"round": round_,
                  "accepted_round": state.accepted_round,
                  "accepted_value": state.accepted_value})

    def _on_promise(self, ctx: HandlerContext, state: PaxosState,
                    message: Message) -> None:
        round_: Round = tuple(message.get("round"))
        if not state.proposing or round_ != state.current_round or state.accept_sent:
            return
        accepted_round: Round = tuple(message.get("accepted_round", NO_ROUND))
        accepted_value = message.get("accepted_value")
        state.promises[message.src] = (accepted_round, accepted_value)
        state.last_promise = (accepted_round, accepted_value)

        if len(state.promises) < state.majority():
            return

        if self.config.inject_bug1:
            # BUG 1: use the value reported by the *last* Promise received.
            _, value = state.last_promise
        else:
            best_round, value = max(
                state.promises.values(),
                key=lambda item: item[0],
            )
            if best_round == NO_ROUND:
                value = None
        if value is None:
            value = state.pending_proposal
        if value is None:
            return
        state.accept_sent = True
        for peer in state.peers:
            ctx.send(peer, ACCEPT, {"round": state.current_round, "value": value})

    def _on_accept(self, ctx: HandlerContext, state: PaxosState,
                   message: Message) -> None:
        round_: Round = tuple(message.get("round"))
        value: int = message.get("value")
        if round_ < state.promised_round:
            return
        state.promised_round = round_
        if not self.config.inject_bug2:
            state.persisted_promised_round = round_
        state.accepted_round = round_
        state.accepted_value = value
        for peer in state.peers:
            ctx.send(peer, LEARN, {"round": round_, "value": value})

    def _on_learn(self, ctx: HandlerContext, state: PaxosState,
                  message: Message) -> None:
        value: int = message.get("value")
        state.record_learn(value, message.src)

    # -- failures -------------------------------------------------------------------------

    def handle_connection_error(self, ctx: HandlerContext, state: PaxosState,
                                peer: Address) -> None:
        # Paxos tolerates message loss; nothing to clean up beyond an
        # in-progress promise count for the broken peer.
        state.promises.pop(peer, None)
