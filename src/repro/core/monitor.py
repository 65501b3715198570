"""Live property monitoring.

The evaluation needs to know how often the *deployed* system actually enters
an inconsistent state (e.g. "the system goes through a total of 121 states
that contain inconsistencies" when CrystalBall is not active,
Section 5.4.1).  :class:`LivePropertyMonitor` is a simulator observer that
checks the properties on the live global state after every executed event
and keeps structured per-property accounting:

* **safety** properties are re-checked per event.  Node-scoped properties
  (``scope == "node"``: the check at a node reads only that node's local
  state) use an **incremental fast path**: only the *dirty* nodes — the
  node that executed the event, plus any node whose liveness/incarnation
  changed since the previous event — are re-checked, and every other
  node's result is served from the per-node cache.  Cross-node and global
  properties are always fully re-checked.  The incremental path produces
  bit-identical violation records to a full re-check (covered by tests
  over all six bundled systems) because both paths walk properties and
  nodes in the same order; it only skips re-computing checks whose inputs
  cannot have changed.
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

The monitor keeps two counters (events checked, inconsistent states) and
the episode records; every other count :meth:`report` shows is read off
the records, and a ``--metrics`` run reads its ``monitor.*`` event, state
and episode counts off :meth:`report`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..mc.global_state import GlobalState
from ..obs.context import ObsContext
from ..properties import (
    LivenessProperty,
    NodeScopedProperty,
    Property,
    PropertyViolation,
    SafetyProperty,
    ViolationRecord,
    state_digest,
)
from ..runtime.address import Address
from ..runtime.events import Event
from ..runtime.simulator import SimNode, Simulator

#: Maximum episode records carried verbatim in :meth:`report` output.
EPISODE_REPORT_LIMIT = 200


class LivePropertyMonitor:
    """Counts inconsistent states and violation episodes in a live run."""

    def __init__(
        self,
        properties: Sequence[Property],
        *,
        incremental: bool = True,
    ) -> None:
        self.properties = list(properties)
        self.incremental = incremental

        self._safety: list[SafetyProperty] = [
            prop for prop in self.properties if isinstance(prop, SafetyProperty)
        ]
        self._trackers = [
            (prop, prop.make_tracker())
            for prop in self.properties
            if isinstance(prop, LivenessProperty)
        ]
        self._severities = {prop.name: prop.severity for prop in self.properties}

        self.events_checked = 0
        self.inconsistent_states = 0
        #: structured record per episode, in order of discovery; every
        #: per-property, per-severity and per-kind count is read off it.
        self.records: list[ViolationRecord] = []

        #: episode keys currently violating: (property id, node or None).
        self._active: set[tuple[str, Optional[Address]]] = set()
        #: incremental cache: (property id, node) -> violation details.
        self._local_cache: dict[tuple[str, Address], tuple[str, ...]] = {}
        #: node liveness fingerprint at the previous event: addr -> incarnation.
        self._known: dict[Address, int] = {}
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

    def _is_fast_path(self, prop: SafetyProperty) -> bool:
        return isinstance(prop, NodeScopedProperty) and prop.scope == "node"

    def _dirty_nodes(
        self, sim: Simulator, state: GlobalState, event: Optional[Event]
    ) -> set[Address]:
        """Nodes whose node-scoped checks must be recomputed this event."""
        current: dict[Address, int] = {}
        dirty: set[Address] = set()
        for addr in state.nodes:
            sim_node = sim.nodes.get(addr)
            incarnation = sim_node.incarnation if sim_node is not None else -1
            current[addr] = incarnation
            if self._known.get(addr) != incarnation:
                dirty.add(addr)
        departed = set(self._known) - set(current)
        if departed:
            self._local_cache = {
                key: details
                for key, details in self._local_cache.items()
                if key[1] not in departed
            }
        if event is not None and event.node in state.nodes:
            dirty.add(event.node)
        self._known = current
        return dirty

    def _safety_violations(
        self, state: GlobalState, dirty: Optional[set[Address]]
    ) -> list[PropertyViolation]:
        """Current safety violations, in deterministic property-major order.

        ``dirty=None`` means re-check everything (the full path); otherwise
        node-scoped properties are only recomputed at the dirty nodes and
        served from the cache elsewhere.
        """
        found: list[PropertyViolation] = []
        computed = cached = 0
        for prop in self._safety:
            if self._is_fast_path(prop):
                assert isinstance(prop, NodeScopedProperty)
                for addr in state.nodes:
                    key = (prop.name, addr)
                    if dirty is None or addr in dirty or key not in self._local_cache:
                        details = tuple(
                            violation.detail
                            for violation in prop.violations_at(state, addr)
                        )
                        self._local_cache[key] = details
                        computed += 1
                    else:
                        cached += 1
                    for detail in self._local_cache[key]:
                        found.append(
                            PropertyViolation(
                                property_name=prop.name, node=addr, detail=detail
                            )
                        )
            else:
                found.extend(prop.violations(state))
        metrics = self._obs.metrics
        if metrics is not None and (computed or cached):
            metrics.inc("monitor.node_checks_computed", computed)
            metrics.inc("monitor.node_checks_cached", cached)
        return found

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
            # Nothing to check: skip the O(nodes) global-state build so a
            # property-free run costs O(1) per event (scale runs rely on
            # this — a 1k-node deployment must not pay a 1k-entry dict
            # copy per delivered message).
            return
        live = sim.node_states()
        state = GlobalState.from_snapshot(
            {addr: s for addr, (s, _) in live.items()},
            timers={addr: t for addr, (_, t) in live.items()},
        )
        dirty = self._dirty_nodes(sim, state, event) if self.incremental else None
        violations = self._safety_violations(state, dirty)
        if violations:
            self.inconsistent_states += 1

        current: set[tuple[str, Optional[Address]]] = set()
        for violation in violations:
            key = (violation.property_name, violation.node)
            if key not in current and key not in self._active:
                self._open_episode(
                    state,
                    sim.now,
                    violation.property_name,
                    violation.node,
                    violation.detail,
                    kind="safety",
                )
            current.add(key)
        self._active = current

        for prop, tracker in self._trackers:
            for failed_node, detail in tracker.observe(state, sim.now):
                self._open_episode(
                    state, sim.now, prop.name, failed_node, detail, kind="liveness"
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
            "incremental": self.incremental,
            "episodes": [record.to_dict()
                         for record in self.records[:EPISODE_REPORT_LIMIT]],
            "episodes_truncated": max(
                0, len(self.records) - EPISODE_REPORT_LIMIT),
        }
