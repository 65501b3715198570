"""The structured result of every experiment: :class:`RunReport`.

One report shape for every entry path — a live run, a live scenario, an
offline search.  It carries the full per-node controller statistics surface, the live
monitor's counts, predicted-vs-avoided accounting and system-specific
outcome fields, and serializes to JSON via
:func:`repro.analysis.reporting.to_jsonable`.

Live handles (simulator, controllers, monitor) stay available on the report
for callers that want to poke at the run afterwards, but are excluded from
the serialized form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

from ..analysis.reporting import to_jsonable
from ..core.controller import ControllerStats

#: Counter fields of ``ControllerStats`` summed into ``RunReport.totals``:
#: every ``int`` one (annotations are strings under ``__future__``).
_COUNTER_FIELDS = tuple(f.name for f in fields(ControllerStats)
                        if f.type == "int")


@dataclass
class NodeReport:
    """Full per-node controller statistics (the complete stats surface)."""

    node: str
    mode: str
    stats: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_controller(cls, controller: Any) -> "NodeReport":
        return cls(node=str(controller.addr),
                   mode=controller.config.mode.value,
                   stats=controller.stats.as_dict())

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "mode": self.mode,
                "stats": to_jsonable(self.stats)}


@dataclass
class RunReport:
    """Everything one experiment run produced."""

    system: str
    scenario: Optional[str] = None
    mode: str = "off"
    #: execution backend the run used ("sim" or "tcp"; see repro.backends).
    backend: str = "sim"
    seed: int = 0
    node_count: int = 0
    simulated_seconds: float = 0.0
    wall_clock_seconds: float = 0.0
    churn_events: int = 0
    nodes: list[NodeReport] = field(default_factory=list)
    #: Live-monitor summary (events checked, inconsistent states, ...).
    monitor: dict[str, Any] = field(default_factory=dict)
    #: System- or scenario-specific results (chosen values, completion
    #: times, search statistics, ...).
    outcome: dict[str, Any] = field(default_factory=dict)
    #: Nemesis summary: injected-fault count, per-fault-type breakdown and
    #: the (bounded) schedule of fault events (see repro.faults).
    faults: dict[str, Any] = field(default_factory=dict)
    #: ``repro.obs`` metrics snapshot (counters/gauges/histograms) when the
    #: run had metrics enabled; empty otherwise.  Histogram values carry
    #: wall-clock timings and are excluded from deterministic comparisons.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Open-loop workload summary (requests injected/completed/skipped and
    #: the traffic shape) when the run drove a workload; empty otherwise.
    workload: dict[str, Any] = field(default_factory=dict)

    # Live handles, excluded from serialization.
    simulator: Any = field(default=None, repr=False, compare=False)
    controllers: dict = field(default_factory=dict, repr=False, compare=False)
    live_monitor: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------- aggregation

    def total(self, counter: str) -> int:
        """Sum one controller counter over all nodes."""
        return sum(int(node.stats.get(counter, 0)) for node in self.nodes)

    def totals(self) -> dict[str, int]:
        """All controller counters summed over the deployment."""
        return {name: self.total(name) for name in _COUNTER_FIELDS}

    def total_predicted(self) -> int:
        return self.total("violations_predicted")

    def total_steered(self) -> int:
        return self.total("steering_modified_behavior")

    def total_unhelpful(self) -> int:
        return self.total("steering_unhelpful")

    def total_isc_blocks(self) -> int:
        return self.total("isc_blocks")

    def total_filter_triggers(self) -> int:
        return self.total("filters_triggered")

    def checkpoint_bytes(self) -> int:
        return self.total("checkpoint_bytes_sent")

    def live_inconsistent_states(self) -> int:
        return int(self.monitor.get("inconsistent_states", 0))

    def faults_injected(self) -> int:
        """Number of fault events the nemesis actually injected."""
        return int(self.faults.get("faults_injected", 0))

    def fault_breakdown(self) -> dict[str, Any]:
        """Per-fault-type ``{injected, healed, skipped}`` counts."""
        return dict(self.faults.get("by_type", {}))

    def violations_observed(self) -> int:
        """Violations this run actually hit (not merely predicted) — the
        quantity ``--fail-on-violation`` gates on.

        The exact semantics, in order:

        1. the live monitor's ``inconsistent_states`` count — events after
           which at least one *safety* property was violated in the live
           global state (a persistent violation counts once per event it
           persists through, matching Section 5.4.1's "goes through N
           states that contain inconsistencies");
        2. plus ``outcome["violations"]`` — the violating states an
           *offline* search (a scripted figure scenario) found, since
           those runs have no live monitor;
        3. plus the monitor's ``liveness_violations`` — expired bounded
           ``eventually``/``leads_to`` obligations, which never appear in
           ``inconsistent_states``;
        4. the scripted scenarios' ``violation_occurred`` flag is partially
           derived from the same monitor counts, so it only contributes
           (as 1) when everything above is zero — e.g. Paxos disagreement
           in a scenario whose monitor never flagged a state.

        Predicted-but-avoided violations (``violations_predicted``,
        steering/ISC accounting) are deliberately excluded: prediction is
        the product working, not the system failing.
        """
        count = self.live_inconsistent_states()
        count += int(self.outcome.get("violations") or 0)
        count += int(self.monitor.get("liveness_violations") or 0)
        if count == 0 and self.outcome.get("violation_occurred"):
            count = 1
        return count

    def violations_by_property(self) -> dict[str, int]:
        """Observed violations per property id, sorted by id.

        Live runs contribute the monitor's per-property *episode* counts
        (one per ``(property, node)`` violation stretch, safety and
        liveness alike); offline scenario runs contribute the per-property
        counts of the search's violating states.
        """
        merged: dict[str, int] = {}
        for source in (self.monitor.get("violations_by_property") or {},
                       self.outcome.get("violations_by_property") or {}):
            for name, count in source.items():
                merged[name] = merged.get(name, 0) + int(count)
        return dict(sorted(merged.items()))

    def violations_by_severity(self) -> dict[str, int]:
        """Monitor violation episodes per severity, sorted by name."""
        return dict(sorted(
            (str(key), int(value))
            for key, value in (self.monitor.get("by_severity") or {}).items()))

    def accounting(self) -> dict[str, int]:
        """Predicted-vs-avoided bookkeeping (Sections 5.4.1 and 5.4.2)."""
        steered = self.total_steered()
        blocked = self.total_isc_blocks()
        return {
            "violations_predicted": self.total_predicted(),
            "steering_modified_behavior": steered,
            "steering_unhelpful": self.total_unhelpful(),
            "isc_blocks": blocked,
            "violations_avoided": steered + blocked,
            "live_inconsistent_states": self.live_inconsistent_states(),
        }

    # ----------------------------------------------------------- serialization

    def requests_injected(self) -> int:
        """Workload requests injected (0 for workload-free runs)."""
        return int(self.workload.get("requests_injected", 0))

    def requests_completed(self) -> int:
        """Workload requests whose completion reply was delivered."""
        return int(self.workload.get("requests_completed", 0))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (live handles excluded)."""
        data = {
            "system": self.system,
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "node_count": self.node_count,
            "simulated_seconds": self.simulated_seconds,
            "wall_clock_seconds": self.wall_clock_seconds,
            "churn_events": self.churn_events,
            "totals": self.totals(),
            "accounting": self.accounting(),
            "properties": {
                "violations_by_property": self.violations_by_property(),
                "by_severity": self.violations_by_severity(),
            },
            "faults": to_jsonable(self.faults),
            "metrics": to_jsonable(self.metrics),
            "monitor": to_jsonable(self.monitor),
            "outcome": to_jsonable(self.outcome),
            "nodes": [node.to_dict() for node in self.nodes],
        }
        # Only workload-driven runs carry the key, so reports serialized
        # before the workload API existed compare bit-identically.
        if self.workload:
            data["workload"] = to_jsonable(self.workload)
        # Same contract for the backend field: sim runs (the universe of
        # reports serialized before backends existed) omit it.
        if self.backend != "sim":
            data["backend"] = self.backend
        return data

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _node_stat(name: str) -> Callable[[RunReport], int]:
    return lambda report: sum(getattr(node.stats, name)
                              for node in report.simulator.nodes.values())


def _faults(kind: str) -> Callable[[RunReport], int]:
    return lambda report: sum(counts[kind] for counts
                              in report.fault_breakdown().values())


def _wire(key: str) -> Callable[[RunReport], int]:
    return lambda report: int(report.outcome.get("wire", {}).get(key, 0))


#: Every metrics counter whose count another layer keeps, and how to read
#: it off a finished live run: the registry never counts these itself
#: (``MetricsRegistry.snapshot(owned)`` refuses a copy), so a counter and
#: the stat it reports cannot drift apart.
OWNED_COUNTERS: dict[str, Callable[[RunReport], int]] = {
    # NodeStats counts a reset as an executed event; the counter does not.
    "runtime.events_executed": lambda report: sum(
        node.stats.events_executed - node.stats.resets
        for node in report.simulator.nodes.values()),
    "runtime.resets": _node_stat("resets"),
    "runtime.events_filtered": _node_stat("events_dropped_by_filter"),
    "runtime.events_delayed": _node_stat("events_delayed"),
    "runtime.events_blocked_by_isc": _node_stat("events_blocked_by_isc"),
    "runtime.messages_sent": _node_stat("messages_sent"),
    "runtime.service_bytes_sent": _node_stat("service_bytes_sent"),
    "runtime.control_bytes_sent": _node_stat("control_bytes_sent"),
    **{f"controller.{name}": (lambda report, name=name: report.total(name))
       for name in ("ticks", "snapshots_collected", "incomplete_snapshots",
                    "checkpoints_taken", "forced_checkpoints",
                    "checkpoint_bytes_sent", "filters_installed",
                    "filters_triggered")},
    "mc.runs": lambda report: report.total("model_checker_runs"),
    "mc.violations_predicted": RunReport.total_predicted,
    "monitor.events_checked": lambda report: report.monitor["events_checked"],
    "monitor.inconsistent_states": RunReport.live_inconsistent_states,
    "monitor.violation_episodes":
        lambda report: report.monitor["distinct_violation_episodes"],
    "monitor.node_checks_computed":
        lambda report: report.live_monitor.node_checks_computed,
    "monitor.node_checks_cached":
        lambda report: report.live_monitor.node_checks_cached,
    "monitor.global_checks_computed":
        lambda report: report.live_monitor.global_checks_computed,
    "monitor.global_checks_cached":
        lambda report: report.live_monitor.global_checks_cached,
    "workload.requests_injected": RunReport.requests_injected,
    "faults.inject": _faults("injected"),
    "faults.heal": _faults("healed"),
    "faults.skip": _faults("skipped"),
    "backend.frames_sent": _wire("frames_sent"),
    "backend.wire_bytes": _wire("wire_bytes"),
}
