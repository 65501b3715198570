"""Discrete-event simulator: the live runtime for protocols under test.

This is the ModelNet-cluster substitute.  It executes protocol state
machines against a latency/loss network model, maintains timers and TCP-like
connections, injects node resets and churn, and exposes the hook points the
CrystalBall controller needs:

* a per-node :class:`NodeHook` consulted before every handler execution
  (event filtering and the immediate safety check),
* control-plane message routing (checkpoint requests/responses),
* controller wakeups via :meth:`Simulator.schedule_at` (hooks arm exactly
  the wakeups they need from ``on_attach``; nothing is polled),
* observers called after every executed event (live property monitoring,
  tracing, statistics), with :attr:`Simulator.touched` naming the nodes
  changed since the previous observer round.

Scheduling is O(active): the heap only ever holds entries for armed
timers, queued deliveries, scheduled events and resets, and hook wakeups,
so idle nodes consume zero scheduler cycles.  Every message leaves through
one send path, which numbers it from the simulator's own counter, so a
run's message ids depend on its inputs alone.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Protocol as TypingProtocol,
    Sequence,
)

from ..obs.context import ObsContext
from .address import Address
from .context import HandlerContext
from .events import (
    AppEvent,
    ConnectionErrorEvent,
    Event,
    MessageEvent,
    ResetEvent,
    TimerEvent,
)
from .logical_clock import LogicalClock
from .messages import Message, Transport
from .network import NetworkModel
from .protocol import Protocol
from .state import NodeState
from .transport import ConnectionTable


class NodeHook(TypingProtocol):
    """Interface the CrystalBall controller implements to plug into a node."""

    def on_attach(self, sim: "Simulator", node: "SimNode") -> None:
        """Called by :meth:`Simulator.attach_hook`: arm whatever periodic
        activity the hook needs (snapshot gathering, model checking) via
        :meth:`Simulator.schedule_at`.  The hook owns its wakeup schedule,
        so one with nothing to do costs no scheduler cycles (see the
        scheduler-hook API notes in the README's Scaling section)."""

    def filter_event(self, sim: "Simulator", node: "SimNode", event: Event) -> bool:
        """Return True to refuse the event (execution steering, Section 3.3).

        The event's kind fixes what a refusal does: a message is dropped
        and its connection reset, which the sender observes as a transport
        error; a timer is re-armed to fire one second later.  Only messages
        and timers can be refused."""

    def immediate_safety_check(self, sim: "Simulator", node: "SimNode", event: Event) -> bool:
        """Return False to block the event because it would immediately
        violate a safety property (Section 3.3, immediate safety check)."""

    def handle_control_message(self, sim: "Simulator", node: "SimNode", message: Message) -> None:
        """Process a CrystalBall control-plane message."""

    def on_forced_checkpoint(self, sim: "Simulator", node: "SimNode") -> None:
        """Called when the logical clock forces a checkpoint (Section 2.3)."""


@dataclass
class NodeStats:
    """Per-node accounting used by the overhead experiments (Section 5.5)."""

    events_executed: int = 0
    messages_sent: int = 0
    service_bytes_sent: int = 0
    control_bytes_sent: int = 0
    resets: int = 0
    events_dropped_by_filter: int = 0
    events_blocked_by_isc: int = 0
    events_delayed: int = 0


@dataclass
class SimNode:
    """A live node: protocol state plus runtime bookkeeping."""

    addr: Address
    protocol: Protocol
    state: NodeState
    clock: LogicalClock = field(default_factory=LogicalClock)
    connections: ConnectionTable = field(default_factory=ConnectionTable)
    armed_timers: dict[str, int] = field(default_factory=dict)  # name -> generation
    incarnation: int = 0
    alive: bool = True
    hook: Optional[NodeHook] = None
    stats: NodeStats = field(default_factory=NodeStats)

    def timer_names(self) -> frozenset[str]:
        return frozenset(self.armed_timers)


@dataclass(order=True)
class _QueueEntry:
    time: float
    seq: int
    kind: str = field(compare=False)
    data: Any = field(compare=False)


#: Event class -> the ``etype`` field of structured ``event`` records.
_EVENT_TYPES = {
    MessageEvent: "msg",
    TimerEvent: "timer",
    AppEvent: "app",
    ResetEvent: "reset",
    ConnectionErrorEvent: "connerr",
}


class Simulator:
    """Discrete-event simulator hosting one protocol across many nodes."""

    #: Registry name, and the constructor keywords beyond the common ones
    #: that :meth:`from_options` accepts (see :mod:`repro.backends`).
    backend_name = "sim"
    accepted_options: tuple[str, ...] = ()

    @classmethod
    def from_options(
        cls,
        protocol_factory: Callable[[], Protocol],
        network: Optional[NetworkModel] = None,
        *,
        seed: int = 0,
        tick_interval: float = 10.0,
        obs: Optional[ObsContext] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> "Simulator":
        """Build the backend from the common arguments plus its own
        ``options``; a typo'd option fails before the run starts."""
        options = dict(options or {})
        unknown = set(options) - set(cls.accepted_options)
        if unknown:
            raise ValueError(
                f"unknown option(s) for the {cls.backend_name!r} backend: "
                f"{sorted(unknown)} (accepted: "
                f"{sorted(cls.accepted_options) or 'no options'})")
        return cls(protocol_factory, network, seed=seed,
                   tick_interval=tick_interval, obs=obs, **options)

    def __init__(
        self,
        protocol_factory: Callable[[], Protocol],
        network: Optional[NetworkModel] = None,
        *,
        seed: int = 0,
        tick_interval: float = 10.0,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.protocol_factory = protocol_factory
        self.network = network or NetworkModel()
        self.rng = random.Random(seed)
        self.tick_interval = tick_interval
        self.obs = obs if obs is not None else ObsContext()
        self._next_eid = 0

        self.now: float = 0.0
        self.nodes: dict[Address, SimNode] = {}
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count()
        #: inflight service messages by delivery id, maintained at
        #: enqueue/deliver time so introspection never scans the heap.
        self._inflight: dict[int, Message] = {}
        self._delivery_ids = itertools.count()
        self._msg_ids = itertools.count(1)
        self._last_tcp_delivery: dict[tuple[Address, Address], float] = {}
        self.observers: list[Callable[["Simulator", SimNode, Event], None]] = []
        #: nodes whose state, armed timers, liveness or incarnation changed
        #: since the previous observer round; cleared once the observers of
        #: an executed event or reset have run, so every observer reads the
        #: same set.
        self.touched: set[Address] = set()

    @property
    def events_executed(self) -> int:
        """Events executed on every node so far, resets included."""
        return sum(node.stats.events_executed for node in self.nodes.values())

    # -- topology management ----------------------------------------------------

    def add_node(self, addr: Address, *, start: bool = True) -> SimNode:
        """Create a node running a fresh protocol instance."""
        if addr in self.nodes:
            raise ValueError(f"node {addr} already exists")
        protocol = self.protocol_factory()
        state = protocol.initial_state(addr)
        node = SimNode(addr=addr, protocol=protocol, state=state)
        self.nodes[addr] = node
        self.touched.add(addr)
        if start:
            ctx = self._make_context(node)
            protocol.on_start(ctx, state)
            self._apply_effects(node, ctx)
        return node

    def attach_hook(self, addr: Address, hook: NodeHook) -> None:
        """Attach a CrystalBall controller (or any hook) to a node and let
        it arm its own wakeups (``hook.on_attach``)."""
        node = self.nodes[addr]
        node.hook = hook
        hook.on_attach(self, node)

    def add_observer(self, observer: Callable[["Simulator", SimNode, Event], None]) -> None:
        """Register a callback invoked after every executed event."""
        self.observers.append(observer)

    # -- scheduling API -----------------------------------------------------------

    def schedule_app(self, time: float, addr: Address, call: str,
                     payload: Optional[Mapping[str, Any]] = None) -> None:
        """Schedule an application call on ``addr`` at absolute time ``time``."""
        self._schedule(time, "event", AppEvent(node=addr, call=call, payload=dict(payload or {})))

    def schedule_reset(self, time: float, addr: Address) -> None:
        """Schedule a silent node reset at absolute time ``time``."""
        self._schedule(time, "reset", addr)

    def schedule_at(self, time: float, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn(sim)`` at absolute time ``time``.

        The controller-facing wakeup interface: hooks and drivers arm
        exactly the wakeups they need instead of being polled every tick.
        """
        self._schedule(time, "callback", fn)

    def inject_app(self, addr: Address, call: str,
                   payload: Optional[Mapping[str, Any]] = None) -> None:
        """Execute an application call on ``addr`` immediately.

        Workload drivers inject whole bursts from a single wakeup through
        this, so a burst of N requests costs one heap entry, not N.
        """
        self._execute_event(AppEvent(node=addr, call=call,
                                     payload=dict(payload or {})))

    def _schedule(self, time: float, kind: str, data: Any) -> None:
        heapq.heappush(self._queue, _QueueEntry(max(time, self.now), next(self._seq), kind, data))

    def _schedule_delivery(self, time: float, message: Message) -> None:
        did = next(self._delivery_ids)
        if not message.control:
            self._inflight[did] = message
        self._schedule(time, "deliver", (did, message))

    # -- running -------------------------------------------------------------------

    def run(self, *, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the simulation until the queue drains, ``until`` simulated
        seconds elapse, or ``max_events`` events execute."""
        for message in self.deliveries(until, max_events):
            self.deliver(message)

    def step(self) -> bool:
        """Execute a single queued entry; returns False when the queue is empty."""
        if not self._queue:
            return False
        for message in self.deliveries(None, 1):
            self.deliver(message)
        return True

    def deliveries(self, until: Optional[float] = None,
                   max_events: Optional[int] = None) -> Iterator[Message]:
        """Run the schedule, yielding every due message for the caller to
        :meth:`deliver` — the one event loop: a backend's ``run`` iterates
        this and puts its transport between the two.

        Queue entries are popped in ``(time, seq)`` order, ``now`` advancing
        to each.  The loop stops after ``max_events`` entries, ``now`` left
        at the last one, or once nothing is due by ``until`` (the queue
        drained or its next entry lies later), ``now`` then set to ``until``
        when one is given.
        An entry is one of five kinds: a ``deliver`` leaves the inflight
        index as it is handed out; a ``timer``, an ``event`` (application
        call or connection error), a ``reset`` and a ``callback`` are
        executed here.
        """
        queue = self._queue
        executed = 0
        while max_events is None or executed < max_events:
            if not queue or (until is not None and queue[0].time > until):
                if until is not None:
                    self.now = until
                return
            entry = heapq.heappop(queue)
            self.now = entry.time
            if entry.kind == "deliver":
                did, message = entry.data
                self._inflight.pop(did, None)
                yield message
            else:
                self._dispatch(entry)
            executed += 1

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, entry: _QueueEntry) -> None:
        kind = entry.kind
        if kind == "timer":
            self._dispatch_timer(entry.data)
        elif kind == "event":
            self._execute_event(entry.data)
        elif kind == "reset":
            self._perform_reset(entry.data)
        elif kind == "callback":
            entry.data(self)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown queue entry kind {kind}")

    def deliver(self, message: Message) -> None:
        """Hand a due message (see :meth:`deliveries`) to its destination:
        the control plane's to the node's hook, a service message to its
        handler, through the event filter and the immediate safety check."""
        node = self.nodes.get(message.dst)
        if node is None or not node.alive:
            self._record_drop(message, "peer-down")
            return
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.record("deliver", self.now, node=message.dst,
                          msg=message.msg_id, mtype=message.mtype,
                          src=message.src)
        if self.obs.metrics is not None:
            self.obs.metrics.inc("runtime.messages_delivered")
        if message.control:
            if node.hook is not None:
                node.hook.handle_control_message(self, node, message)
            return
        # Forced checkpoint before processing a message with a larger
        # checkpoint number (Section 2.3).
        if node.clock.observe(message.checkpoint_number) and node.hook is not None:
            node.hook.on_forced_checkpoint(self, node)  # type: ignore[attr-defined]
        self._execute_event(MessageEvent(node=message.dst, message=message))

    def _dispatch_timer(self, data: tuple[Address, str, int]) -> None:
        addr, name, generation = data
        node = self.nodes.get(addr)
        if node is None or not node.alive:
            return
        if node.armed_timers.get(name) != generation:
            return  # re-armed, or cleared by a reset, since
        del node.armed_timers[name]
        self._execute_event(TimerEvent(node=addr, timer=name))

    # -- event execution -------------------------------------------------------------

    def _execute_event(self, event: Event) -> None:
        node = self.nodes.get(event.node)
        if node is None or not node.alive:
            return

        if node.hook is not None:
            if node.hook.filter_event(self, node, event):
                # The refused event's kind fixes the corrective action.
                if isinstance(event, MessageEvent):
                    node.stats.events_dropped_by_filter += 1
                    self._record_trace(node, event, "filtered+reset")
                    self._break_connection(node, event.message.src)
                else:
                    node.stats.events_delayed += 1
                    self.set_timer(node, event.timer, 1.0)
                    self._record_trace(node, event, "delayed")
                return
            if not node.hook.immediate_safety_check(self, node, event):
                node.stats.events_blocked_by_isc += 1
                self._record_trace(node, event, "blocked-by-isc")
                if isinstance(event, TimerEvent):
                    self.set_timer(node, event.timer, 1.0)
                return

        ctx = self._make_context(node)
        node.state = node.protocol.execute(ctx, node.state, event)
        self.touched.add(node.addr)
        self._apply_effects(node, ctx)

        node.stats.events_executed += 1
        self._record_trace(node, event, "executed")
        for observer in self.observers:
            observer(self, node, event)
        self.touched.clear()

    def _make_context(self, node: SimNode) -> HandlerContext:
        return HandlerContext(self_addr=node.addr, now=self.now, rng=self.rng)

    def _apply_effects(self, node: SimNode, ctx: HandlerContext) -> None:
        for op in ctx.timer_ops:
            self.set_timer(node, op.name, op.delay)
        for peer in ctx.closed_connections:
            self._break_connection(node, peer)
        for message in ctx.sent:
            self._transmit(node, message)

    # -- timers -------------------------------------------------------------------------

    def set_timer(self, node: SimNode, name: str, delay: float) -> None:
        """Arm (or re-arm) a named timer on ``node``."""
        generation = node.armed_timers.get(name, 0) + 1
        node.armed_timers[name] = generation
        self.touched.add(node.addr)
        self._schedule(self.now + max(delay, 1e-6), "timer", (node.addr, name, generation))

    # -- message transmission -------------------------------------------------------------

    def _planned_copies(self, stamped: Message, latency: float,
                        ) -> tuple[Message, Sequence[float]]:
        """The message as the fault interceptors leave it and the latency
        of every copy they plan (one, untouched, without interceptors)."""
        if not self.network.interceptors:
            return stamped, (latency,)
        stamped = self.network.rewrite_message(stamped, self.rng)
        return stamped, self.network.plan_deliveries(stamped, latency, self.rng)

    def _transmit(self, node: SimNode, message: Message) -> None:
        """The one send path: number the message, stamp a service message
        with the sender's checkpoint number, account the send (node stats,
        trace), then queue every copy the network delivers."""
        stamped = replace(
            message, msg_id=next(self._msg_ids),
            checkpoint_number=(message.checkpoint_number if message.control
                               else node.clock.stamp()))
        node.stats.messages_sent += 1
        size = stamped.size_bytes()
        if stamped.control:
            node.stats.control_bytes_sent += size
        else:
            node.stats.service_bytes_sent += size
        if self.obs.tracer is not None:
            self.obs.tracer.record(
                "send", self.now, node=stamped.src, msg=stamped.msg_id,
                mtype=stamped.mtype, dst=stamped.dst,
                transport=stamped.transport.value, control=stamped.control,
                bytes=size,
            )
        if not self.network.reachable(stamped.src, stamped.dst):
            self._record_drop(stamped, "unreachable")
            if stamped.transport is Transport.TCP:
                self._schedule_connection_error(node.addr, stamped.dst)
            return

        if stamped.transport is Transport.UDP:
            latency = self.network.latency(stamped.src, stamped.dst, self.rng)
            loss = self.network.loss_probability(stamped.src, stamped.dst,
                                                 self.rng)
            if self.rng.random() < loss:
                self._record_drop(stamped, "loss")
                return
            # Fault interceptors act on messages that survived the loss
            # draw, so ``messages_affected`` counts delivered traffic.
            stamped, plan = self._planned_copies(stamped, latency)
            for delivery_latency in plan:
                self._schedule_delivery(self.now + delivery_latency, stamped)
            return

        # TCP semantics: verify / establish the connection first.
        dest = self.nodes.get(stamped.dst)
        latency = self.network.latency(stamped.src, stamped.dst, self.rng)
        if dest is None or not dest.alive:
            self._record_drop(stamped, "peer-down")
            self._schedule_connection_error(node.addr, stamped.dst)
            node.connections.close(stamped.dst)
            return
        recorded = node.connections.recorded_incarnation(stamped.dst)
        if recorded is not None and recorded != dest.incarnation:
            # Stale connection: the peer reset since establishment.
            self._record_drop(stamped, "stale-connection")
            node.connections.close(stamped.dst)
            self._schedule_connection_error(node.addr, stamped.dst)
            return
        if recorded is None:
            node.connections.establish(stamped.dst, dest.incarnation)
            dest.connections.establish(node.addr, node.incarnation)
        stamped, plan = self._planned_copies(stamped, latency)
        key = (stamped.src, stamped.dst)
        # TCP stays FIFO per stream even under fault interceptors: every
        # planned copy is delivered no earlier than the previous delivery.
        for delivery_latency in sorted(plan):
            delivery = max(self.now + delivery_latency,
                           self._last_tcp_delivery.get(key, 0.0) + 1e-6)
            self._last_tcp_delivery[key] = delivery
            self._schedule_delivery(delivery, stamped)

    def transmit(self, addr: Address, message: Message) -> None:
        """Send a message on behalf of ``addr`` (used by the CrystalBall
        controller for checkpoint requests and responses)."""
        node = self.nodes[addr]
        self._transmit(node, message)

    def _record_drop(self, message: Message, reason: str) -> None:
        if self.obs.metrics is not None:
            self.obs.metrics.inc("runtime.messages_dropped")
        if self.obs.tracer is not None:
            self.obs.tracer.record("drop", self.now, msg=message.msg_id,
                                   mtype=message.mtype, reason=reason)

    def _schedule_connection_error(self, at: Address, peer: Address) -> None:
        latency = self.network.latency(peer, at, self.rng)
        self._schedule(self.now + latency, "event", ConnectionErrorEvent(node=at, peer=peer))

    def _break_connection(self, node: SimNode, peer: Address) -> None:
        """Tear down the TCP connection between ``node`` and ``peer`` and
        signal the peer with an RST (used by execution steering)."""
        node.connections.close(peer)
        peer_node = self.nodes.get(peer)
        if peer_node is not None and peer_node.alive:
            peer_node.connections.close(node.addr)
            self._schedule_connection_error(peer, node.addr)

    # -- resets / churn ---------------------------------------------------------------------

    def _perform_reset(self, addr: Address) -> None:
        node = self.nodes.get(addr)
        if node is None:
            return
        node.incarnation += 1
        node.stats.resets += 1
        self.touched.add(addr)
        affected = node.connections.close_all()
        node.armed_timers.clear()
        # RST packets towards peers; each may be lost (silent reset), which is
        # the scenario that exposes the RandTree inconsistency of Figure 2.
        for peer in affected:
            peer_node = self.nodes.get(peer)
            if peer_node is None or not peer_node.alive:
                continue
            if self.rng.random() < self.network.rst_loss_probability:
                continue  # silent: the peer keeps its stale connection
            peer_node.connections.close(addr)
            self._schedule_connection_error(peer, addr)
        # Reboot with fresh state.
        ctx = self._make_context(node)
        node.state = node.protocol.execute(ctx, node.state, ResetEvent(node=addr))
        node.clock = LogicalClock()
        self._apply_effects(node, ctx)
        node.stats.events_executed += 1
        self._record_trace(node, ResetEvent(node=addr), "reset")
        for observer in self.observers:
            observer(self, node, ResetEvent(node=addr))
        self.touched.clear()

    def crash_node(self, addr: Address) -> None:
        """Take a node permanently offline (fail-stop, used by churn)."""
        node = self.nodes.get(addr)
        if node is None:
            return
        node.alive = False
        self.touched.add(addr)
        node.armed_timers.clear()
        node.connections.close_all()

    def revive_node(self, addr: Address) -> None:
        """Bring a crashed node back with fresh state."""
        node = self.nodes.get(addr)
        if node is None:
            return
        node.alive = True
        node.incarnation += 1
        self.touched.add(addr)
        ctx = self._make_context(node)
        node.state = node.protocol.execute(ctx, node.state, ResetEvent(node=addr))
        self._apply_effects(node, ctx)

    # -- introspection -------------------------------------------------------------------------

    def node_states(self) -> dict[Address, tuple[NodeState, frozenset[str]]]:
        """Live view of all alive nodes: protocol state plus armed timers."""
        return {
            addr: (node.state, node.timer_names())
            for addr, node in self.nodes.items()
            if node.alive
        }

    def inflight_messages(self) -> list[Message]:
        """Service messages currently queued for delivery, in enqueue
        order.  Served from the inflight index maintained at
        enqueue/deliver time — O(inflight), never a heap scan."""
        return list(self._inflight.values())

    def total_service_bytes(self) -> int:
        return sum(n.stats.service_bytes_sent for n in self.nodes.values())

    def _record_trace(self, node: SimNode, event: Event, outcome: str) -> None:
        tracer = self.obs.tracer
        if tracer is not None:
            eid = None
            if outcome in ("executed", "reset"):
                self._next_eid += 1
                eid = self._next_eid
            msg_id = (event.message.msg_id
                      if isinstance(event, MessageEvent) else None)
            tracer.record(
                "event", self.now, node=node.addr,
                etype=_EVENT_TYPES.get(type(event), "event"), outcome=outcome,
                desc=event.describe(), eid=eid, msg=msg_id,
            )
