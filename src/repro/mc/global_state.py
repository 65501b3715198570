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
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.serialization import freeze, pickled
from ..runtime.state import NodeState


@dataclass(frozen=True)
class ErrorNotification:
    """A pending transport-error signal: ``dst`` will observe a broken
    connection with ``peer`` when the notification is delivered."""

    dst: Address
    peer: Address

    def signature(self) -> tuple:
        return ("errnotif", self.dst.frozen(), self.peer.frozen())


@dataclass(frozen=True)
class NodeLocal:
    """Local state of one node as seen by the model checker.

    The wrapped state is never mutated once the wrapper exists (handlers
    run on clones and produce a fresh ``NodeLocal``), so the signature, its
    hash and the size are computed once and cached: successor states share
    the wrappers of all unchanged nodes.  A search interns the wrappers its
    handler runs produce (:class:`~repro.mc.transition.Memo`), so one
    wrapper stands for every node state of equal content at one address:
    it is run through each handler, frozen, hashed and pickled once per
    search.  By the same convention the wrapper of a changed node can take
    its signature from the wrapper it replaced (``signature(parent)``),
    re-freezing only the fields the handler touched.
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

    def pickled(self) -> Optional[bytes]:
        """The state's pickle, or None when it does not pickle; its length
        is the state's :meth:`~repro.runtime.state.NodeState.size_bytes`,
        which this caches.  Hash the wrapper first: freezing caches frozen
        forms inside the state's addresses, and the pickle carries them."""
        blob = pickled(self.state)
        if self._size_cache is None:
            size = self.state.size_bytes() if blob is None else len(blob)
            object.__setattr__(self, "_size_cache",
                               size + 16 * len(self.timers))
        return blob

    def size_bytes(self) -> int:
        if self._size_cache is None:
            self.pickled()
        return self._size_cache


class Step(NamedTuple):
    """What one event changes in a global state (:meth:`GlobalState.after`).

    The node at ``node`` now holds ``local`` (when given), the in-flight
    ``message`` and the pending ``error`` are consumed (when given), ``sent``
    and ``raised`` are appended and ``reset`` counts one more reset.  A
    search's transition memo stores one step per handler run and hands it
    to every state that repeats the run, with its ``digests`` worked out
    once (:meth:`digest`).
    """

    node: Optional[Address] = None
    local: Optional[NodeLocal] = None
    message: Optional[Message] = None
    error: Optional[ErrorNotification] = None
    sent: tuple[Message, ...] = ()
    raised: tuple[ErrorNotification, ...] = ()
    reset: Optional[Address] = None
    digests: Optional[tuple] = None

    def digest(self, state: "GlobalState") -> tuple:
        """The step's digests in ``state``, a hashed state it applies to:
        the changed node's slot in address order and its digest (its
        signature derived from the wrapper it replaces, see
        :meth:`NodeLocal.signature`), the consumed entry's, and those of
        what it sends and raises."""
        slot = node_digest = None
        if self.local is not None:
            state.state_hash()
            slot = state._digests[0][1][self.node]
            node_digest = _node_digest(self.node, self.local,
                                       state.nodes[self.node])
        return (slot, node_digest,
                None if self.message is None
                else hash(self.message.signature()),
                None if self.error is None else hash(self.error.signature()),
                _entry_digests(self.sent), _entry_digests(self.raised))

    def raising(self, errors: tuple[ErrorNotification, ...]) -> "Step":
        """This step with ``errors`` raised after its own (a reset's
        notifications, which depend on the other nodes)."""
        digests = self.digests
        if digests is not None:
            digests = digests[:5] + (digests[5] + _entry_digests(errors),)
        return self._replace(raised=self.raised + errors, digests=digests)


def _node_digest(addr: Address, local: NodeLocal,
                 parent: Optional[NodeLocal] = None) -> int:
    """One node's part of a state hash: its address and its local state.
    It is also the node-local key of consequence prediction's
    ``localExplored`` (:class:`~repro.mc.search.Explorer`)."""
    return hash((addr.host, addr.port, local.node_hash(parent)))


def _entry_digests(entries: Iterable) -> tuple[int, ...]:
    """The hash of each in-flight message or error notification."""
    return tuple(hash(entry.signature()) for entry in entries)


def _combined(digests: tuple, resets: tuple) -> int:
    """A state's hash from its component digests: messages and errors as
    sorted tuples, so their order does not count."""
    _, nodes, messages, errors = digests
    return hash((nodes, tuple(sorted(messages)), tuple(sorted(errors)), resets))


def _index(items: tuple, target) -> Optional[int]:
    """Where the first item that is or equals ``target`` sits, if any."""
    if target is None:
        return None
    try:
        return items.index(target)
    except ValueError:
        return None


def _found(items: tuple, digests: tuple[int, ...], target,
           digest: Optional[int]) -> Optional[int]:
    """:func:`_index` of ``target``, looked up by its ``digest`` among the
    items' ``digests``.  An equal item has an equal digest, and each match
    is checked for identity or equality, so a digest collision or a
    message equal in signature but not in checkpoint number is passed
    over, and of two equal items the first is found."""
    at = -1
    while True:
        try:
            at = digests.index(digest, at + 1)
        except ValueError:
            return None
        if items[at] is target or items[at] == target:
            return at


def _dropped(items: tuple, at: Optional[int]) -> tuple:
    return items if at is None else items[:at] + items[at + 1:]


class Splice(NamedTuple):
    """A successor's identity, from :meth:`GlobalState.splice`: its hash
    and digests, its reset counts, and where the consumed message and
    error sat in the parent."""

    state_hash: int
    digests: tuple
    resets: tuple
    message_at: Optional[int]
    error_at: Optional[int]


@dataclass
class GlobalState:
    """A complete system state explored by the model checker.

    Treated as immutable once it has been hashed or has entered a search
    frontier: size and hash are computed once and cached.  The hash is
    made of three component digests, kept with it: one per node in
    address order (:func:`_node_digest`), one per in-flight message and
    one per error, aligned with ``inflight`` and ``errors``.  Messages and
    errors enter the hash as sorted tuples, so their order does not count.
    :meth:`splice` works out a successor's hash from these digests before
    the successor exists: it replaces one node's, drops the consumed
    entries' and appends those of what the step sent and raised, so the
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

    def after(self, step: Step,
              splice: Optional[Splice] = None) -> "GlobalState":
        """The state ``step`` leads to from this one.  ``step.local`` is
        shared, not copied: the successors a search builds from one handler
        run hold the same wrapper.

        A search passes the :meth:`splice` it hashed the step with; the
        successor then carries its hash, its digests and, when this state
        is sized, its size, all spliced from this state's.  Any other
        successor (replay, the immediate safety check, random walks) is
        hashed and sized from scratch if anyone asks.
        """
        if splice is None:
            message_at = _index(self.inflight, step.message)
            error_at = _index(self.errors, step.error)
            resets = self._resets_after(step)
        else:
            message_at, error_at = splice.message_at, splice.error_at
            resets = splice.resets
        nodes = self.nodes
        if step.local is not None:
            nodes = {**nodes, step.node: step.local}
        after = GlobalState(
            nodes=nodes,
            inflight=_dropped(self.inflight, message_at) + step.sent,
            errors=_dropped(self.errors, error_at) + step.raised,
            resets=resets)
        if splice is None:
            return after
        after._hash_cache, after._digests = splice.state_hash, splice.digests
        if self._size_cache is not None:
            # Hashed, then sized: the parts' sizes are the ones a cold sum
            # over the successor would take.
            size = self._size_cache
            if step.local is not None:
                size += (step.local.size_bytes()
                         - self.nodes[step.node].size_bytes())
            if message_at is not None:
                size -= self.inflight[message_at].size_bytes()
            size += sum(message.size_bytes() for message in step.sent)
            size += 24 * (len(step.raised) - (error_at is not None))
            after._size_cache = size
        return after

    def _resets_after(self, step: Step) -> tuple[tuple[Address, int], ...]:
        if step.reset is None:
            return self.resets
        counts = dict(self.resets)
        counts[step.reset] = counts.get(step.reset, 0) + 1
        return tuple(sorted(counts.items()))

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
            order = tuple(sorted(self.nodes))
            self._digests = (
                (order, {addr: slot for slot, addr in enumerate(order)}),
                tuple(_node_digest(addr, self.nodes[addr]) for addr in order),
                _entry_digests(self.inflight),
                _entry_digests(self.errors))
            self._hash_cache = _combined(self._digests, self.resets)
        return self._hash_cache

    def splice(self, step: Step) -> Splice:
        """The successor's identity after ``step``, spliced from this
        state's digests without building it: its ``state_hash`` is
        ``after(step).state_hash()``.  ``step.node``, if the step changes a
        node, is one of this state's."""
        if self._hash_cache is None:
            self.state_hash()
        layout, node_digests, messages, errors = self._digests
        digests = step.digests
        if digests is None:
            digests = step.digest(self)
        (slot, node_digest, message_digest, error_digest,
         sent, raised) = digests
        if slot is not None:
            node_digests = (node_digests[:slot] + (node_digest,)
                            + node_digests[slot + 1:])
        message_at = error_at = None
        if step.message is not None:
            message_at = _found(self.inflight, messages, step.message,
                                message_digest)
            messages = _dropped(messages, message_at)
        if step.error is not None:
            error_at = _found(self.errors, errors, step.error, error_digest)
            errors = _dropped(errors, error_at)
        digests = layout, node_digests, messages + sent, errors + raised
        resets = self._resets_after(step)
        return Splice(_combined(digests, resets), digests, resets,
                      message_at, error_at)

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
