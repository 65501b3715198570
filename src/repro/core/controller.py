"""The CrystalBall controller (Section 3, Figure 7).

One controller instance is attached to every CrystalBall-enabled node.  It
implements the runtime's :class:`~repro.runtime.simulator.NodeHook`
interface and ties together all the pieces:

* the **checkpoint manager**: periodic local checkpoints, forced checkpoints
  driven by the logical clock, neighbourhood snapshot gathering over
  control-plane messages, storage quotas and bandwidth accounting;
* the **model checker**: replaying previously discovered error paths, then
  running consequence prediction on the latest consistent snapshot;
* **deep online debugging**: recording predicted violations;
* **execution steering**: deriving event filters from predictions, vetting
  them, installing them into the runtime, and removing them after every
  model-checking run;
* the **immediate safety check** fallback.

Each tick closes one :class:`Round` — gather, snapshot, start state, replay,
search, steering — which is counted once (:meth:`ControllerStats.fold`) and
rendered into trace records and metrics in one place.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..mc.global_state import GlobalState
from ..mc.parallel import SearchEngine, SearchKind, make_engine
from ..mc.search import PredictedViolation, SearchBudget, SearchStats
from ..properties import Property, SafetyProperty, safety_properties
from ..mc.transition import TransitionConfig, TransitionSystem
from ..runtime.address import Address
from ..runtime.events import Event
from ..runtime.messages import Message, Transport
from ..runtime.protocol import Protocol
from ..runtime.simulator import SimNode, Simulator
from .checkpoint import Checkpoint, CheckpointStore, PeerTransferCache
from .event_filter import EventFilter
from .immediate import ImmediateSafetyCheck
from .replay import replay_error_path
from .snapshot import NeighborhoodSnapshot
from .steering import check_filter_safety, steering_filter

#: Control-plane message types used by the checkpoint manager.
CHECKPOINT_REQUEST = "_cb_checkpoint_request"
CHECKPOINT_RESPONSE = "_cb_checkpoint_response"
CHECKPOINT_NEGATIVE = "_cb_checkpoint_negative"

#: Maximum error paths remembered for replay.
MAX_REMEMBERED_PATHS = 32


class Mode(enum.Enum):
    """Operating modes of CrystalBall (Section 3 and the evaluation)."""

    OFF = "off"
    #: Only report predicted violations (deep online debugging).
    DEBUG = "debug"
    #: Predict violations and steer execution away from them.
    STEERING = "steering"
    #: Only the immediate safety check, no consequence prediction
    #: (the middle configuration of Section 5.4.1).
    ISC_ONLY = "isc-only"


@dataclass(frozen=True)
class CheckingPolicy:
    """Which rounds a node runs the full snapshot + model-check cycle.

    Sampled deep checking, straight from the paper's deployment story
    (Section 4): only a rotating subset of nodes runs the full CrystalBall
    checker each round while every node keeps the cheap incremental
    monitor.  With ``period == n`` each node deep-checks every n-th round;
    the seeded phase assignment spreads the duty so roughly ``1/n`` of the
    nodes check in any given round, and off-duty controllers schedule no
    wakeups at all (the O(active) property).  Rotation is derived from a
    stable digest of ``(seed, node address)``, so it is bit-reproducible
    per seed regardless of ``PYTHONHASHSEED`` or attach order.

    ``period == 1`` — the default — is the classic every-node-every-round
    behaviour and is bit-identical to the pre-policy runtime.
    """

    period: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("CheckingPolicy.period must be >= 1")

    def phase(self, addr: Address) -> int:
        """This node's deep-check round offset in ``[0, period)``."""
        if self.period <= 1:
            return 0
        digest = hashlib.sha1(
            f"{self.seed}:{addr}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.period


@dataclass(frozen=True)
class CrystalBallConfig:
    """Tunable parameters of a run's controllers, which all share it."""

    mode: Mode = Mode.DEBUG
    #: Budget for each consequence-prediction run.
    search_budget: SearchBudget = SearchBudget(max_states=2000, max_depth=8)
    #: Budget for filter-safety re-checks.
    safety_budget: SearchBudget = SearchBudget(max_states=300, max_depth=6,
                                               stop_at_first_violation=True)
    transition: TransitionConfig = TransitionConfig()
    #: Search engine executing consequence prediction: ``"serial"`` (the
    #: default, inline single-threaded search), ``"parallel"`` (sharded
    #: frontier over one worker per CPU), ``"parallel:N"`` or
    #: ``"portfolio"`` (race exhaustive search, consequence prediction and
    #: random walks from every snapshot).
    engine: str = "serial"
    checkpoint_quota: int = 16
    #: Outbound bandwidth limit for checkpoint traffic, bytes per tick
    #: (None = unlimited; Section 3.1 "Managing Bandwidth Consumption").
    checkpoint_bandwidth_limit: Optional[int] = None
    #: Sampled deep checking (see :class:`CheckingPolicy`).  The default
    #: every-round policy is bit-identical to the pre-policy runtime.
    checking: CheckingPolicy = CheckingPolicy()
    #: Charge checkpoint responses at delta-encoded cost: a peer holding
    #: the previous checkpoint only pays for the changed state fields, so
    #: control-plane bytes stay flat as node count grows.  Off by default
    #: because it changes the byte accounting of existing runs.
    delta_checkpoints: bool = False
    #: Send snapshot requests over UDP instead of TCP.  Off by default: UDP
    #: requests may be lost (an incomplete snapshot rather than a retry),
    #: which is the scale trade-off, not the 24-node semantics.
    udp_checkpoint_requests: bool = False


@dataclass
class Round:
    """One controller round (Figure 7): it gathers checkpoint answers until
    the next tick closes it, and closing fills in the later stages."""

    checkpoint_number: int
    expected: frozenset[Address]
    received: dict[Address, Checkpoint] = field(default_factory=dict)
    #: members that refused, with the checkpoint number they reported.
    negative: dict[Address, int] = field(default_factory=dict)
    snapshot: Optional[NeighborhoodSnapshot] = None
    #: built once; the search, the re-checks and the ISC all read it.
    start: Optional[GlobalState] = None
    #: known error paths replayed, and how many of them reproduced.
    replayed: int = 0
    reproduced: int = 0
    #: None in a mode that runs no model checker.
    search: Optional[SearchStats] = None
    #: wall seconds of start state, replay and search (steering excluded).
    search_seconds: float = 0.0
    #: the reproduced violations, then the newly predicted ones.
    violations: list[PredictedViolation] = field(default_factory=list)
    unhelpful: int = 0
    installed: list[tuple[EventFilter, PredictedViolation]] = field(
        default_factory=list)

    @property
    def missing(self) -> frozenset[Address]:
        """Expected members that neither answered nor refused."""
        return frozenset(self.expected - set(self.received)
                         - set(self.negative))


@dataclass
class ControllerStats:
    """Counters reported in Sections 5.4 and 5.5; the per-round ones are
    folded in from closed rounds (:meth:`fold`)."""

    ticks: int = 0
    model_checker_runs: int = 0
    snapshots_collected: int = 0
    incomplete_snapshots: int = 0
    checkpoints_taken: int = 0
    forced_checkpoints: int = 0
    checkpoint_bytes_sent: int = 0
    checkpoint_requests_sent: int = 0
    checkpoint_responses_sent: int = 0
    negative_responses_sent: int = 0
    violations_predicted: int = 0
    distinct_violations: set[str] = field(default_factory=set)
    steering_modified_behavior: int = 0
    steering_unhelpful: int = 0
    filters_installed: int = 0
    filters_triggered: int = 0
    isc_checks: int = 0
    isc_blocks: int = 0
    replayed_paths: int = 0
    replay_reproduced: int = 0

    def as_dict(self) -> dict:
        """The complete stats surface, JSON-ready (sets become sorted lists)."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        data["distinct_violations"] = sorted(data["distinct_violations"])
        return data

    def fold(self, closed: Round) -> None:
        """Count one closed round."""
        self.snapshots_collected += 1
        # Before the stale fill: a gather with any gap is incomplete.
        self.incomplete_snapshots += bool(closed.missing or closed.negative)
        if closed.search is None:
            return
        self.model_checker_runs += 1
        self.replayed_paths += closed.replayed
        self.replay_reproduced += closed.reproduced
        self.violations_predicted += len(closed.violations)
        self.distinct_violations.update(
            v.violation.property_name for v in closed.violations)
        self.steering_unhelpful += closed.unhelpful
        self.filters_installed += len(closed.installed)
        self.steering_modified_behavior += len(closed.installed)


class CrystalBallController:
    """Per-node CrystalBall controller; implements the runtime NodeHook."""

    def __init__(
        self,
        addr: Address,
        protocol: Protocol,
        properties: Sequence[Property],
        config: Optional[CrystalBallConfig] = None,
    ) -> None:
        self.addr = addr
        self.protocol = protocol
        # The model checker and ISC evaluate predicates over single global
        # states; liveness properties only exist for the live monitor and
        # are dropped here.
        self.properties: list[SafetyProperty] = safety_properties(properties)
        self.config = config or CrystalBallConfig()
        self._severities = {p.name: p.severity for p in self.properties}

        self.system = TransitionSystem(protocol, self.config.transition)
        #: built at attach, reporting into the run's metrics registry.
        self.engine: Optional[SearchEngine] = None
        #: wakeup spacing; set from the simulator's tick interval at attach.
        self._wakeup_interval = 10.0 * self.config.checking.period
        self.store = CheckpointStore(quota=self.config.checkpoint_quota)
        self.transfer_cache = PeerTransferCache()
        self.isc = ImmediateSafetyCheck(self.system, self.properties)

        self.stats = ControllerStats()
        self.filters: list[EventFilter] = []
        self.known_error_paths: list[tuple[Event, ...]] = []
        #: the round gathering answers, and the last closed one.
        self._round: Optional[Round] = None
        self.last_round: Optional[Round] = None
        #: most recent checkpoint received from each peer (possibly stale),
        #: used to fill in snapshot members that did not answer in time.
        self.peer_checkpoints: dict[Address, Checkpoint] = {}

    # ------------------------------------------------------------------ NodeHook

    def on_attach(self, sim: Simulator, node: SimNode) -> None:
        """Arm this controller's own wakeup schedule (O(active) scheduling).

        With the default every-round :class:`CheckingPolicy` this
        reproduces the legacy polled tick bit for bit: the first wakeup
        fires one tick interval after attach and each round re-arms after
        its work, exactly where the old ``tick`` dispatch allocated its
        heap entries.  With a sampled policy the first wakeup is deferred
        to this node's phase and later wakeups skip the rounds the node is
        off duty — a sleeping controller holds no heap entry and costs no
        scheduler cycles, yet still answers peers' checkpoint requests on
        demand (delivery-driven, not tick-driven).
        """
        self.engine = make_engine(self.config.engine, metrics=sim.obs.metrics)
        self._wakeup_interval = sim.tick_interval * self.config.checking.period
        phase = self.config.checking.phase(self.addr)
        sim.schedule_at(sim.now + sim.tick_interval * (phase + 1),
                        self._wakeup)

    def _wakeup(self, sim: Simulator) -> None:
        # Mirrors the legacy tick dispatch: a detached or superseded hook
        # stops running, a dead node skips the round but keeps its wakeup
        # armed so a revived node resumes checking.
        node = sim.nodes.get(self.addr)
        if node is None:
            return
        if node.alive and node.hook is self:
            self.on_tick(sim, node)
        if node.hook is self:
            sim.schedule_at(sim.now + self._wakeup_interval, self._wakeup)

    def on_tick(self, sim: Simulator, node: SimNode) -> None:
        """Periodic controller activity: close the open round and open the
        next one."""
        self.stats.ticks += 1
        tick_started = time.perf_counter()

        local = self._take_checkpoint(sim, node, node.clock.advance())

        if self._round is not None:
            self._close(sim, node, local)

        self._start_gather(sim, node, local)
        if self.config.checking.period > 1:
            # Under sampling the next on-duty wakeup is a full period away
            # — far too late to close this round's gather.  Finalise it
            # one tick from now instead, once the responses are in.
            sim.schedule_at(sim.now + sim.tick_interval,
                            self._finalize_wakeup)
        if sim.obs.metrics is not None:
            sim.obs.metrics.observe(
                "controller.tick_seconds",
                time.perf_counter() - tick_started)

    def _finalize_wakeup(self, sim: Simulator) -> None:
        node = sim.nodes.get(self.addr)
        if (node is None or not node.alive or node.hook is not self
                or self._round is None):
            return
        self._close(
            sim, node, self._take_checkpoint(sim, node, node.clock.advance()))

    def filter_event(self, sim: Simulator, node: SimNode, event: Event) -> bool:
        if self.config.mode is not Mode.STEERING:
            return False
        for event_filter in self.filters:
            if event_filter.matches(event):
                self.stats.filters_triggered += 1
                if sim.obs.tracer is not None:
                    sim.obs.tracer.record(
                        "filter_trigger", sim.now, node=node.addr,
                        filter=event_filter.describe(),
                        action=event_filter.action, desc=event.describe())
                return True
        return False

    def immediate_safety_check(self, sim: Simulator, node: SimNode, event: Event) -> bool:
        if self.config.mode in (Mode.OFF, Mode.DEBUG):
            return True
        self.stats.isc_checks += 1
        neighborhood = (self.last_round.start
                        if self.last_round is not None else None)
        blocked = self.isc.check(node.addr, node.state, node.timer_names(),
                                 event, neighborhood=neighborhood)
        if blocked:
            self.stats.isc_blocks += 1
        return not blocked

    def handle_control_message(self, sim: Simulator, node: SimNode, message: Message) -> None:
        if message.mtype == CHECKPOINT_REQUEST:
            self._answer_checkpoint_request(sim, node, message)
        elif message.mtype == CHECKPOINT_RESPONSE:
            self._record_checkpoint_response(message)
        elif message.mtype == CHECKPOINT_NEGATIVE:
            self._record_negative_response(message)

    def on_forced_checkpoint(self, sim: Simulator, node: SimNode) -> None:
        self.stats.forced_checkpoints += 1
        self._take_checkpoint(sim, node, node.clock.value, forced=True)

    # --------------------------------------------------------------- checkpointing

    def _take_checkpoint(self, sim: Simulator, node: SimNode,
                         checkpoint_number: int, *,
                         forced: bool = False) -> Checkpoint:
        checkpoint = Checkpoint(node=node.addr,
                                checkpoint_number=checkpoint_number,
                                state=node.state.clone(),
                                timers=node.timer_names())
        self.store.record(checkpoint)
        self.stats.checkpoints_taken += 1
        if sim.obs.tracer is not None:
            sim.obs.tracer.record("checkpoint", sim.now, node=node.addr,
                                  cn=checkpoint_number, forced=forced)
        return checkpoint

    def _start_gather(self, sim: Simulator, node: SimNode, local: Checkpoint) -> None:
        neighbors = [n for n in self.protocol.neighbors(node.state) if n != node.addr]
        self._round = Round(checkpoint_number=local.checkpoint_number,
                            expected=frozenset(neighbors))
        transport = (Transport.UDP if self.config.udp_checkpoint_requests
                     else Transport.TCP)
        for neighbor in neighbors:
            sim.transmit(node.addr, Message(
                mtype=CHECKPOINT_REQUEST,
                src=node.addr,
                dst=neighbor,
                payload={"cn": local.checkpoint_number},
                transport=transport,
                control=True,
            ))
        self.stats.checkpoint_requests_sent += len(neighbors)

    def _answer_checkpoint_request(self, sim: Simulator, node: SimNode,
                                   message: Message) -> None:
        requested = int(message.get("cn", 0))
        requester = message.src

        if self.config.checkpoint_bandwidth_limit is not None:
            budget = self.config.checkpoint_bandwidth_limit * max(self.stats.ticks, 1)
            if self.stats.checkpoint_bytes_sent >= budget:
                self._send_negative(sim, node, requester)
                return

        if node.clock.observe_request(requested):
            checkpoint = self._take_checkpoint(sim, node, requested)
        else:
            checkpoint = self.store.respond(requested)
        if checkpoint is None:
            self._send_negative(sim, node, requester)
            return

        cost = self.transfer_cache.transfer_cost(
            requester, checkpoint, delta=self.config.delta_checkpoints)
        self.stats.checkpoint_bytes_sent += cost
        if sim.obs.metrics is not None:
            sim.obs.metrics.observe("controller.checkpoint_response_bytes",
                                    cost)
        response = Message(
            mtype=CHECKPOINT_RESPONSE,
            src=node.addr,
            dst=requester,
            payload={
                "cn": checkpoint.checkpoint_number,
                "state": checkpoint.state,
                # Sorted: a frozenset of strings pickles in string-hash
                # order, so the tcp frame size would follow PYTHONHASHSEED.
                "timers": tuple(sorted(checkpoint.timers)),
                "bytes": cost,
            },
            transport=Transport.TCP,
            control=True,
        )
        sim.transmit(node.addr, response)
        self.stats.checkpoint_responses_sent += 1

    def _send_negative(self, sim: Simulator, node: SimNode, requester: Address) -> None:
        response = Message(
            mtype=CHECKPOINT_NEGATIVE,
            src=node.addr,
            dst=requester,
            payload={"cn": node.clock.value},
            transport=Transport.TCP,
            control=True,
        )
        sim.transmit(node.addr, response)
        self.stats.negative_responses_sent += 1

    def _record_checkpoint_response(self, message: Message) -> None:
        if self._round is None:
            return
        checkpoint = Checkpoint(node=message.src,
                                checkpoint_number=int(message.get("cn", 0)),
                                state=message.get("state"),
                                timers=frozenset(message.get("timers", ())))
        self.peer_checkpoints[message.src] = checkpoint
        self._round.received[message.src] = checkpoint

    def _record_negative_response(self, message: Message) -> None:
        if self._round is not None:
            self._round.negative[message.src] = int(message.get("cn", 0))

    # ---------------------------------------------------------------- the round

    def _close(self, sim: Simulator, node: SimNode, local: Checkpoint) -> None:
        """Close the open round: fill in its stages, count it, render it."""
        closed, self._round = self._round, None
        checkpoints = {**closed.received, local.node: local}
        unanswered = closed.missing | frozenset(closed.negative)
        # A neighbour that did not answer (partition, failure) is stood in
        # for by the most recent checkpoint previously received from it:
        # slightly stale state is preferable to a blind spot, and the paper
        # attributes its Paxos false negatives to exactly such gaps.
        checkpoints.update((addr, self.peer_checkpoints[addr])
                           for addr in unanswered if addr in self.peer_checkpoints)
        closed.snapshot = snapshot = NeighborhoodSnapshot(
            origin=node.addr, checkpoint_number=closed.checkpoint_number,
            checkpoints=checkpoints, missing=unanswered - set(checkpoints))
        started = time.perf_counter()
        closed.start = snapshot.to_global_state()
        if self.config.mode in (Mode.DEBUG, Mode.STEERING):
            self._predict(closed)
            closed.search_seconds = time.perf_counter() - started
            if self.config.mode is Mode.STEERING:
                self._steer(node, closed)
            # Filters are removed after every model-checking run (Section
            # 3.3); a replayed error path that reproduces reinstalls its own.
            self.filters = [event_filter for event_filter, _ in closed.installed]
        self.stats.fold(closed)
        self.last_round = closed

        tracer, metrics = sim.obs.tracer, sim.obs.metrics
        if tracer is not None:
            tracer.record("snapshot", sim.now, node=node.addr,
                          cn=closed.checkpoint_number,
                          members=len(snapshot.checkpoints),
                          missing=len(snapshot.missing),
                          complete=not snapshot.missing)
        search = closed.search
        if search is None:
            return
        if metrics is not None:
            metrics.inc("mc.states_visited", search.states_visited)
            metrics.inc("mc.transitions_applied", search.transitions_applied)
            metrics.gauge("mc.max_depth_reached").update_max(
                search.max_depth_reached)
            metrics.observe("controller.mc_run_seconds", closed.search_seconds)
        if tracer is None:
            return
        tracer.record("mc_run", sim.now, node=node.addr,
                      engine=self.config.engine, states=search.states_visited,
                      transitions=search.transitions_applied,
                      depth=search.max_depth_reached,
                      violations=len(closed.violations),
                      wall=closed.search_seconds)
        for violation in closed.violations:
            name = violation.violation.property_name
            tracer.record("violation", sim.now, node=node.addr, property=name,
                          severity=self._severities.get(name, "error"),
                          vkind="predicted", detail=violation.violation.detail)
        for event_filter, violation in closed.installed:
            tracer.record("filter_install", sim.now, node=node.addr,
                          filter=event_filter.describe(),
                          property=violation.violation.property_name,
                          path_len=len(violation.path))

    def _predict(self, closed: Round) -> None:
        """Replay the known error paths, then run consequence prediction."""
        closed.replayed = len(self.known_error_paths)
        for path in self.known_error_paths:
            reproduced = replay_error_path(self.system, closed.start, path,
                                           self.properties)
            if reproduced is not None:
                closed.violations.append(reproduced)
        closed.reproduced = len(closed.violations)
        result = self.engine.run(self.system, closed.start, self.properties,
                                 self.config.search_budget,
                                 kind=SearchKind.CONSEQUENCE)
        closed.search = result.stats
        # Violations with an empty path are already present in the snapshot
        # itself — they are live inconsistencies, not predictions, and there
        # is no handler invocation left to steer around.
        future = [v for v in result.violations if v.path]
        closed.violations += future
        for violation in future:
            if violation.path not in self.known_error_paths:
                self.known_error_paths.append(violation.path)
        del self.known_error_paths[:-MAX_REMEMBERED_PATHS]

    def _steer(self, node: SimNode, closed: Round) -> None:
        """Re-check each filter once; every prediction takes its verdict."""
        verdicts: dict[EventFilter, bool] = {}
        for violation in closed.violations:
            event_filter = steering_filter(node.addr, violation.path)
            if event_filter is None:
                closed.unhelpful += 1
                continue
            fresh = event_filter not in verdicts
            if fresh:
                verdicts[event_filter] = check_filter_safety(
                    self.system, closed.start, self.properties, event_filter,
                    budget=self.config.safety_budget,
                    expected_violations=closed.violations)
            if not verdicts[event_filter]:
                closed.unhelpful += 1
            elif fresh:
                filter_id = (self.stats.filters_installed
                             + len(closed.installed) + 1)
                closed.installed.append(
                    (replace(event_filter, filter_id=filter_id), violation))


def attach_crystalball(
    sim: Simulator,
    properties: Sequence[Property],
    *,
    config: Optional[CrystalBallConfig] = None,
) -> dict[Address, CrystalBallController]:
    """Attach a CrystalBall controller to every node of ``sim``.

    Returns the controllers keyed by node address so callers can inspect
    per-node statistics after the run.
    """
    controllers: dict[Address, CrystalBallController] = {}
    for addr, node in list(sim.nodes.items()):
        controller = CrystalBallController(addr, node.protocol, properties,
                                           config)
        controllers[addr] = controller
        sim.attach_hook(addr, controller)
    return controllers
