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
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    run on clones and produce a fresh ``NodeLocal``), so the signature and
    its hash are computed once and cached: successor states share the
    wrappers of all unchanged nodes, and a search's transition memo hands
    one wrapper to every successor that repeats a handler run, so a node
    state is frozen and hashed once per handler run.  By the same
    convention the wrapper of a changed node can take its signature from
    the wrapper it replaced (``signature(parent)``), re-freezing only the
    fields the handler touched.
    """

    state: NodeState
    timers: frozenset[str] = frozenset()
    _sig_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False, init=False)
    _hash_cache: Optional[int] = field(
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

    def node_hash(self, parent: Optional["NodeLocal"] = None) -> int:
        """``hash(signature(parent))``, once per wrapper."""
        if self._hash_cache is None:
            object.__setattr__(self, "_hash_cache",
                               hash(self.signature(parent)))
        return self._hash_cache

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


def _node_digest(addr: Address, local: NodeLocal,
                 parent: Optional[NodeLocal] = None) -> int:
    """One node's part of a state hash: its address and its local state.
    It is also the node-local key of consequence prediction's
    ``localExplored`` (:class:`~repro.mc.search.Explorer`)."""
    return hash((addr.host, addr.port, local.node_hash(parent)))


def _entry_digests(entries: Iterable) -> tuple[int, ...]:
    """The hash of each in-flight message or error notification."""
    return tuple(hash(entry.signature()) for entry in entries)


def _spliced(digests: tuple[int, ...], consumed_at: Optional[int],
             entries: tuple) -> tuple[int, ...]:
    """The digests of a successor's ``entries`` (its in-flight messages, or
    its errors) from its parent's ``digests``: the one at ``consumed_at``
    is gone, and the entries the step appended are hashed here."""
    if consumed_at is not None:
        digests = digests[:consumed_at] + digests[consumed_at + 1:]
    if len(entries) == len(digests):
        return digests
    return digests + _entry_digests(entries[len(digests):])


@dataclass
class GlobalState:
    """A complete system state explored by the model checker.

    Treated as immutable once it has been hashed or has entered a search
    frontier: size and hash are computed once and cached.  The hash is
    made of three component digests, kept with it: one per node in
    address order (:func:`_node_digest`), one per in-flight message and
    one per error, aligned with ``inflight`` and ``errors``.  Messages and
    errors enter the hash as sorted tuples, so their order does not count.
    A :meth:`successor` of a hashed state splices its digests from its
    parent's when first asked: it replaces one node's, drops the consumed
    entries' and appends those of what the step sent and raised, so its
    hash costs what the step changed.  Any other state computes the same
    hash from scratch.

    Component hashes are never summed or XORed: CPython's tuple hash is
    close to linear in its last items, so a sum of per-node digests does
    not move when two nodes swap states.
    """

    nodes: dict[Address, NodeLocal]
    inflight: tuple[Message, ...] = ()
    errors: tuple[ErrorNotification, ...] = ()
    resets: tuple[tuple[Address, int], ...] = ()
    _size_cache: Optional[int] = field(default=None, repr=False, compare=False, init=False)
    #: ``hash((node digests, sorted message digests, sorted error digests,
    #: resets))``: a search asks for it twice per state.
    _hash_cache: Optional[int] = field(default=None, repr=False, compare=False, init=False)
    #: ``((sorted addresses, address -> slot), node digests, message
    #: digests, error digests)``, set with the hash.  The address layout is
    #: one object shared by every state spliced from the first one hashed.
    _digests: Optional[tuple] = field(default=None, repr=False, compare=False, init=False)
    #: ``(parent's digests, changed node, its new wrapper, the wrapper it
    #: replaced, consumed inflight index, consumed errors index)`` of a
    #: :meth:`successor` of a hashed state, until :meth:`state_hash` has
    #: used it.
    _splice: Optional[tuple] = field(default=None, repr=False, compare=False, init=False)

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
        wrapper, so its signature, hash and size are worked out once.

        The successor of a hashed state keeps this state's digests and is
        hashed from them when asked; the immediate safety check builds two
        such successors per vetted event and never asks.  The successor of
        a state not hashed (replay) is hashed from scratch if anyone asks.
        """
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
        if self._digests is not None:
            replaced = None if addr is None else self.nodes.get(addr)
            if addr is None or replaced is not None:
                after._splice = (self._digests, addr, local, replaced,
                                 message_at, error_at)
        return after

    def reset_count(self, addr: Address) -> int:
        for node, count in self.resets:
            if node == addr:
                return count
        return 0

    # -- identity --------------------------------------------------------------------

    def signature(self) -> tuple:
        """The canonical form of this state: node signatures in address
        order, in-flight and error signatures sorted by ``repr``, resets.
        Equal signatures give equal :meth:`state_hash` values; the search
        never builds this, :func:`~repro.properties.state_digest` does."""
        return (
            tuple((freeze(addr), self.nodes[addr].signature())
                  for addr in sorted(self.nodes)),
            tuple(sorted((m.signature() for m in self.inflight), key=repr)),
            tuple(sorted((e.signature() for e in self.errors), key=repr)),
            self.resets,
        )

    def state_hash(self) -> int:
        if self._hash_cache is None:
            if self._splice is None:
                order = tuple(sorted(self.nodes))
                layout = order, {addr: slot for slot, addr in enumerate(order)}
                node_digests = tuple(_node_digest(addr, self.nodes[addr])
                                     for addr in order)
                messages = _entry_digests(self.inflight)
                errors = _entry_digests(self.errors)
            else:
                (digests, addr, local, replaced,
                 message_at, error_at) = self._splice
                self._splice = None
                layout, node_digests, messages, errors = digests
                if addr is not None:
                    slot = layout[1][addr]
                    node_digests = (
                        node_digests[:slot]
                        + (_node_digest(addr, local, replaced),)
                        + node_digests[slot + 1:])
                messages = _spliced(messages, message_at, self.inflight)
                errors = _spliced(errors, error_at, self.errors)
            self._digests = layout, node_digests, messages, errors
            self._hash_cache = hash((node_digests, tuple(sorted(messages)),
                                     tuple(sorted(errors)), self.resets))
        return self._hash_cache

    def local_keys(self) -> Iterator[tuple[Address, int]]:
        """``(address, node digest)`` per node, in address order: the
        node-local keys of consequence prediction's ``localExplored``."""
        self.state_hash()
        layout, node_digests, _, _ = self._digests
        return zip(layout[0], node_digests)

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
