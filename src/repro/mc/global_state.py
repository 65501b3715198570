"""Global distributed-system state for model checking (Figure 4).

A global state is the local state of every node (including its armed
timers, which determine the enabled internal actions) plus the set of
in-flight network messages.  The model checker additionally tracks in-flight
*error notifications* (pending TCP RST / broken-connection signals produced
by node resets and steering actions) and per-node reset counts so searches
over fault scenarios stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.serialization import freeze
from ..runtime.state import NodeState


@dataclass(frozen=True)
class ErrorNotification:
    """A pending transport-error signal: ``dst`` will observe a broken
    connection with ``peer`` when the notification is delivered."""

    dst: Address
    peer: Address

    def signature(self) -> tuple:
        return ("errnotif", freeze(self.dst), freeze(self.peer))


@dataclass(frozen=True)
class NodeLocal:
    """Local state of one node as seen by the model checker.

    The wrapped state is never mutated once the wrapper exists (handlers
    run on clones and produce a fresh ``NodeLocal``), so the signature is
    computed once and cached: successor states share the wrappers of all
    unchanged nodes and hashing them again costs a tuple lookup instead of
    a full re-freeze of their state.  By the same convention the wrapper
    of a changed node can take its signature from the wrapper it replaced
    (``signature(parent)``), re-freezing only the fields the handler touched.
    """

    state: NodeState
    timers: frozenset[str] = frozenset()
    _sig_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False, init=False)
    _size_cache: Optional[int] = field(
        default=None, repr=False, compare=False, init=False)

    def signature(self, parent: Optional["NodeLocal"] = None) -> tuple:
        """``(state signature, sorted timers)``; what the step from
        ``parent``, the wrapper this one replaced, left unchanged is reused."""
        if self._sig_cache is None:
            if parent is None:
                signature = (self.state.signature(), tuple(sorted(self.timers)))
            else:
                state_part, timer_part = parent.signature()
                signature = (
                    self.state.signature_after(parent.state, state_part),
                    timer_part if self.timers == parent.timers
                    else tuple(sorted(self.timers)))
            object.__setattr__(self, "_sig_cache", signature)
        return self._sig_cache

    def size_bytes(self) -> int:
        if self._size_cache is None:
            object.__setattr__(
                self, "_size_cache",
                self.state.size_bytes() + 16 * len(self.timers))
        return self._size_cache


def _without(items: tuple, target) -> tuple[tuple, Optional[int]]:
    """``items`` less the first ``target`` (if any), and the index it had."""
    if target is None or target not in items:
        return items, None
    index = items.index(target)
    return items[:index] + items[index + 1:], index


def _inherit(keyed: tuple, part: tuple, consumed_at: Optional[int],
             entries: tuple) -> tuple[tuple, tuple]:
    """A successor's ``(sort key, signature)`` pair per entry of ``entries``
    (its in-flight messages, or its errors) and their canonical part, from
    its parent's — empty: from scratch.  The entry at ``consumed_at`` is
    gone and what the step appended is keyed here, once: its ``repr`` is
    never taken again by a state that carries it on."""
    if consumed_at is None and len(entries) == len(keyed):
        return keyed, part
    if consumed_at is not None:
        keyed = keyed[:consumed_at] + keyed[consumed_at + 1:]
    keyed += tuple((repr(signature), signature) for signature in
                   (entry.signature() for entry in entries[len(keyed):]))
    # The canonical order is ``sorted(signatures, key=repr)``.
    return keyed, tuple(signature for _, signature
                        in sorted(keyed, key=itemgetter(0)))


@dataclass
class GlobalState:
    """A complete system state explored by the model checker.

    Treated as immutable once it has been hashed or has entered a search
    frontier: size, signature and hash are computed once and cached.  By the
    same convention a :meth:`successor` of a hashed state remembers its
    parent and what the step changed; its first :meth:`signature` call
    splices the signature from the parent's and drops the link.
    """

    nodes: dict[Address, NodeLocal]
    inflight: tuple[Message, ...] = ()
    errors: tuple[ErrorNotification, ...] = ()
    resets: tuple[tuple[Address, int], ...] = ()
    _size_cache: Optional[int] = field(default=None, repr=False, compare=False, init=False)
    _sig_cache: Optional[tuple] = field(default=None, repr=False, compare=False, init=False)
    #: ``hash(signature())``: a search asks for it twice per state.
    _hash_cache: Optional[int] = field(default=None, repr=False, compare=False, init=False)
    #: the keyed pairs of ``inflight`` and of ``errors`` (see
    #: :func:`_inherit`), aligned with them and set with the signature.
    _keyed: Optional[tuple] = field(default=None, repr=False, compare=False, init=False)
    #: ``(parent, changed node, (consumed inflight index, consumed errors
    #: index))`` of a :meth:`successor`, until :meth:`signature` has used it.
    _origin: Optional[tuple] = field(default=None, repr=False, compare=False, init=False)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        states: Mapping[Address, NodeState],
        timers: Optional[Mapping[Address, Iterable[str]]] = None,
        inflight: Iterable[Message] = (),
    ) -> "GlobalState":
        """Build a global state from a set of node checkpoints.

        This is how the CrystalBall controller seeds consequence prediction:
        the neighbourhood snapshot provides the node states; in-flight
        messages are unknown and therefore empty unless explicitly given.
        """
        timers = timers or {}
        nodes = {
            addr: NodeLocal(state=state, timers=frozenset(timers.get(addr, ())))
            for addr, state in states.items()
        }
        return cls(nodes=nodes, inflight=tuple(inflight))

    # -- copies and updates --------------------------------------------------------

    def clone(self) -> "GlobalState":
        """Deep copy (node states are mutable dataclasses)."""
        return GlobalState(
            nodes={addr: NodeLocal(state=nl.state.clone(), timers=nl.timers)
                   for addr, nl in self.nodes.items()},
            inflight=self.inflight,
            errors=self.errors,
            resets=self.resets,
        )

    def successor(self, addr: Optional[Address] = None,
                  local: Optional[NodeLocal] = None, *,
                  consumed_message: Optional[Message] = None,
                  sent: Sequence[Message] = (),
                  consumed_error: Optional[ErrorNotification] = None,
                  raised: Sequence[ErrorNotification] = (),
                  reset: Optional[Address] = None) -> "GlobalState":
        """The state one step after this one: the node at ``addr`` (if
        given) now holds ``local``, one in-flight message and one error are
        consumed, ``sent`` and ``raised`` are appended, and ``reset`` counts
        one more reset.  ``local`` is shared, not copied: the successors a
        search's transition memo builds from one handler run hold the same
        wrapper, so its signature and size are worked out once."""
        nodes = self.nodes
        if addr is not None:
            nodes = {**nodes, addr: local}
        inflight, message_at = _without(self.inflight, consumed_message)
        errors, error_at = _without(self.errors, consumed_error)
        resets = self.resets
        if reset is not None:
            counts = dict(resets)
            counts[reset] = counts.get(reset, 0) + 1
            resets = tuple(sorted(counts.items()))
        after = GlobalState(nodes=nodes, inflight=inflight + tuple(sent),
                            errors=errors + tuple(raised), resets=resets)
        # Only a hashed parent is remembered: successors nobody hashes
        # (replay, the immediate safety check) keep no chain of states alive.
        if self._sig_cache is not None:
            after._origin = (self, addr, (message_at, error_at))
        return after

    def reset_count(self, addr: Address) -> int:
        for node, count in self.resets:
            if node == addr:
                return count
        return 0

    # -- identity --------------------------------------------------------------------

    def signature(self) -> tuple:
        if self._sig_cache is None:
            keyed, parts, consumed = ((), ()), ((), ()), (None, None)
            if self._origin is None:
                node_part = tuple(
                    (freeze(addr), self.nodes[addr].signature())
                    for addr in sorted(self.nodes)
                )
            else:
                # Spliced from the parent's signature: equal, and
                # ``repr``-equal, to the one computed from scratch.
                parent, addr, consumed = self._origin
                self._origin = None
                node_part, *parts, _ = parent._sig_cache
                keyed = parent._keyed
                if addr is not None:
                    key = addr.frozen()
                    entry = (key, self.nodes[addr].signature(parent.nodes[addr]))
                    node_part = tuple([entry if old[0] == key else old
                                       for old in node_part])
            inflight_keyed, inflight_part = _inherit(
                keyed[0], parts[0], consumed[0], self.inflight)
            error_keyed, error_part = _inherit(
                keyed[1], parts[1], consumed[1], self.errors)
            self._keyed = inflight_keyed, error_keyed
            self._sig_cache = (node_part, inflight_part, error_part, self.resets)
        return self._sig_cache

    def state_hash(self) -> int:
        if self._hash_cache is None:
            self._hash_cache = hash(self.signature())
        return self._hash_cache

    # -- accounting ---------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate in-memory size of this state (Figures 15/16)."""
        if self._size_cache is None:
            total = sum(nl.size_bytes() for nl in self.nodes.values())
            total += sum(m.size_bytes() for m in self.inflight)
            total += 24 * len(self.errors)
            self._size_cache = total
        return self._size_cache

    def describe(self) -> str:
        """Short human-readable summary for traces and reports."""
        parts = [f"{addr}:{type(nl.state).__name__}" for addr, nl in sorted(self.nodes.items())]
        return f"GlobalState({', '.join(parts)}; {len(self.inflight)} msgs in flight)"
