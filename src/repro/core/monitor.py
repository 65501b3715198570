"""Live property monitoring.

The evaluation needs to know how often the *deployed* system actually enters
an inconsistent state (e.g. "the system goes through a total of 121 states
that contain inconsistencies" when CrystalBall is not active,
Section 5.4.1).  :class:`LivePropertyMonitor` is a simulator observer that
checks the properties on the live global state after every executed event
and keeps structured per-property accounting.  Its cost per event is
O(touched), not O(nodes):

* **one long-lived view.**  The monitor keeps a ``{address: NodeLocal}``
  view of every alive node, in ``sim.nodes`` order (the order of
  :meth:`~repro.runtime.simulator.Simulator.node_states`).  After an event
  only the nodes the simulator names in ``sim.touched`` — state, armed
  timers, liveness or incarnation changed since the previous observer round
  — get a fresh :class:`~repro.mc.global_state.NodeLocal`; a node joining
  or leaving rebuilds the view from ``node_states()`` so a revived node
  keeps its place.  A :class:`~repro.mc.global_state.GlobalState` over the
  view and ``sim.inflight_messages()`` is built once per call.
* **safety** properties.  Each keeps its verdict on the view, derived
  after every event from the previous one and the nodes that changed
  (:meth:`~repro.properties.SafetyProperty.derive`); an episode opens for
  each ``(property, node)`` key the new verdict lists and the old one did
  not.  Episode records are bit-identical to a full re-check (covered by
  tests over all six bundled systems).
* **liveness** properties (bounded ``eventually`` / ``leads_to``
  obligations) are driven over simulated time through per-run trackers;
  :meth:`finalize` is called at the end of the run so deadlines that
  expired after the last event still count.

Violation *episodes* are keyed on ``(property, node)``: a persistent
violation whose free-form detail text drifts between events (a sorted
member list changing, say) is still one episode; the detail is payload on
the emitted :class:`~repro.properties.ViolationRecord`, never part of the
episode identity.  An episode ends when the key stops violating and a
later recurrence opens a new episode.

The monitor keeps six counters (events checked, inconsistent states, node
and cross-node checks computed and kept) and the episode records; every
other count :meth:`report` shows is read off the records, and a
``--metrics`` run reads its ``monitor.*`` counts off the finished monitor.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..mc.global_state import GlobalState, NodeLocal
from ..obs.context import ObsContext
from ..properties import (
    LivenessProperty,
    NodeScopedProperty,
    Property,
    PropertyViolation,
    ViolationRecord,
    safety_properties,
    state_digest,
)
from ..runtime.address import Address
from ..runtime.events import Event
from ..runtime.simulator import SimNode, Simulator

#: Maximum episode records carried verbatim in :meth:`report` output.
EPISODE_REPORT_LIMIT = 200


class LivePropertyMonitor:
    """Counts inconsistent states and violation episodes in a live run."""

    def __init__(self, properties: Sequence[Property]) -> None:
        self.properties = list(properties)

        self._safety = safety_properties(self.properties)
        #: per safety property: True when it is checked node by node.
        self._by_node = [isinstance(prop, NodeScopedProperty)
                         for prop in self._safety]
        self._node_scoped = sum(self._by_node)
        self._cross_node = len(self._safety) - self._node_scoped
        self._trackers = [
            (prop, prop.make_tracker())
            for prop in self.properties
            if isinstance(prop, LivenessProperty)
        ]
        self._severities = {prop.name: prop.severity for prop in self.properties}

        self.events_checked = 0
        self.inconsistent_states = 0
        #: node-scoped checks recomputed at touched nodes, and kept for the
        #: untouched rest of the view.
        self.node_checks_computed = 0
        self.node_checks_cached = 0
        #: cross-node checks run (a ``combine`` or a whole-view predicate),
        #: and summarised verdicts reused.
        self.global_checks_computed = 0
        self.global_checks_cached = 0
        #: structured record per episode, in order of discovery; every
        #: per-property, per-severity and per-kind count is read off it.
        self.records: list[ViolationRecord] = []

        #: alive nodes in ``node_states()`` order; None until the first call.
        self._view: Optional[dict[Address, NodeLocal]] = None
        #: each safety property's verdict on the view (None: none yet), and
        #: the violations it lists.
        self._verdicts: list = [None] * len(self._safety)
        self._listed: list[list[PropertyViolation]] = [[] for _ in self._safety]
        self._finalized = False
        #: observability for the hosting run; replaced by install().
        self._obs = ObsContext()

    # ------------------------------------------------------------- wiring

    def install(self, sim: Simulator) -> "LivePropertyMonitor":
        sim.add_observer(self)
        self._obs = sim.obs
        for _, tracker in self._trackers:
            # Run-start-relative liveness windows open now, not at the
            # first executed event (which may come arbitrarily late).
            tracker.anchor(sim.now)
        return self

    # ----------------------------------------------------------- checking

    def _update_view(self, sim: Simulator) -> tuple[list[Address], list[Address]]:
        """Bring the view up to date; the alive nodes to re-check, in view
        order, and the nodes that left."""
        touched, view = sim.touched, self._view
        if view is not None:
            recheck = []
            for addr in touched:
                node = sim.nodes[addr]
                if node.alive != (addr in view):
                    break  # a node joined or left
                if node.alive:
                    view[addr] = NodeLocal(state=node.state,
                                           timers=node.timer_names())
                    recheck.append(addr)
            else:
                if len(recheck) > 1:
                    # View order, never the touched set's hash order.
                    recheck = [addr for addr in view if addr in touched]
                return recheck, []
        # Rebuild in node_states() order, so a revived node keeps its place.
        old = view or {}
        self._view = view = {
            addr: NodeLocal(state=state, timers=timers)
            for addr, (state, timers) in sim.node_states().items()}
        return ([addr for addr in view if addr in touched or addr not in old],
                [addr for addr in old if addr not in view])

    def _open_episode(
        self,
        state: GlobalState,
        now: float,
        property_name: str,
        node: Optional[Address],
        detail: str,
        kind: str,
    ) -> None:
        record = ViolationRecord(
            property_id=property_name,
            severity=self._severities.get(property_name, "error"),
            node=str(node) if node is not None else None,
            detail=detail,
            sim_time=now,
            episode=len(self.records),
            state_digest=state_digest(state),
            kind=kind,
        )
        self.records.append(record)
        if self._obs.tracer is not None:
            self._obs.tracer.record(
                "violation", now, node=node, property=property_name,
                severity=record.severity, vkind=kind, detail=detail,
                digest=record.state_digest,
            )

    def __call__(self, sim: Simulator, node: SimNode, event: Event) -> None:
        self.events_checked += 1
        if not self._safety and not self._trackers:
            # Nothing to check: a property-free run costs O(1) per event.
            return
        recheck, departed = self._update_view(sim)
        changed = recheck + departed
        state = GlobalState(nodes=self._view,
                            inflight=tuple(sim.inflight_messages()))
        now = sim.now
        verdicts, listed = self._verdicts, self._listed
        moved = 0  # cross-node verdicts that moved
        # Property-major, node-minor: the order of a full check_all.
        for index, prop in enumerate(self._safety):
            before = verdicts[index]
            after = prop.derive(before, state, changed)
            if after is before:
                continue
            moved += not self._by_node[index]
            verdicts[index] = after
            was = {violation.node for violation in listed[index]}
            listed[index] = prop.listed(after, state)
            for violation in listed[index]:
                if violation.node not in was:
                    was.add(violation.node)
                    self._open_episode(state, now, prop.name, violation.node,
                                       violation.detail, "safety")
        if any(listed):
            self.inconsistent_states += 1
        self.global_checks_computed += moved
        self.global_checks_cached += self._cross_node - moved
        computed = self._node_scoped * len(recheck)
        self.node_checks_computed += computed
        self.node_checks_cached += self._node_scoped * len(self._view) - computed

        for prop, tracker in self._trackers:
            for failed_node, detail in tracker.observe(state, now):
                self._open_episode(
                    state, now, prop.name, failed_node, detail, kind="liveness"
                )

    def finalize(self, now: float) -> None:
        """End of run: flush liveness obligations whose deadline passed.

        Uses an empty placeholder state for the digest (there is no "state
        that exhibited it" — the violation is the *absence* of a state).
        Idempotent; called by the live-run driver after the simulation.
        """
        if self._finalized:
            return
        self._finalized = True
        empty = GlobalState(nodes={})
        for prop, tracker in self._trackers:
            for failed_node, detail in tracker.finalize(now):
                self._open_episode(
                    empty, now, prop.name, failed_node, detail, kind="liveness"
                )

    # ---------------------------------------------------------- reporting

    @property
    def new_violations(self) -> int:
        """Number of distinct violation episodes observed."""
        return len(self.records)

    def violations_by_property(self) -> dict[str, int]:
        """Episode count per property id, sorted by id."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.property_id] = counts.get(record.property_id, 0) + 1
        return dict(sorted(counts.items()))

    def by_severity(self) -> dict[str, int]:
        """Episode count per severity, sorted by severity name."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.severity] = counts.get(record.severity, 0) + 1
        return dict(sorted(counts.items()))

    def report(self) -> dict:
        return {
            "events_checked": self.events_checked,
            "inconsistent_states": self.inconsistent_states,
            "distinct_violation_episodes": self.new_violations,
            "properties_violated": sorted(
                {record.property_id for record in self.records}),
            "violations_by_property": self.violations_by_property(),
            "by_severity": self.by_severity(),
            "liveness_violations": sum(
                1 for record in self.records if record.kind == "liveness"),
            "episodes": [record.to_dict()
                         for record in self.records[:EPISODE_REPORT_LIMIT]],
            "episodes_truncated": max(
                0, len(self.records) - EPISODE_REPORT_LIMIT),
        }
