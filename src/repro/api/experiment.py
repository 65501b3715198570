"""The fluent :class:`Experiment` builder: the one live-run record.

``Experiment`` is the single front door to the reproduction: pick a
registered system, chain configuration calls, and ``run()`` — a generic live
deployment with staggered joins, churn and CrystalBall controllers, or a
named scenario::

    report = (Experiment("chord")
              .nodes(24)
              .network(loss=0.01)
              .churn(rate=1 / 60)
              .crystalball(mode="steering")
              .duration(400)
              .run())
    print(report.accounting())

The builder's own fields are the run record: ``run()`` drives the backend
from them.  A *live* scenario is a preset folded under the explicit settings
before that one path is taken; a *search* scenario goes to
:func:`run_search_scenario` (see
:class:`~repro.api.registry.ScenarioSpec`).  Both return a
:class:`~repro.api.report.RunReport`.
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import replace
from typing import Any, Optional, Sequence, Union

from ..backends import backend_names, make_backend
from ..core.consequence import consequence_prediction
from ..core.controller import (
    CheckingPolicy,
    CrystalBallConfig,
    CrystalBallController,
    Mode,
    attach_crystalball,
)
from ..core.monitor import LivePropertyMonitor
from ..faults.base import Fault
from ..faults.byzantine import MutatingFault
from ..faults.nemesis import Nemesis
from ..faults.presets import make_nemesis
from ..mc.search import SearchBudget
from ..obs import JsonlTracer, MetricsRegistry, ObsContext, Tracer
from ..properties import Property, resolve_properties
from ..properties.registry import PropertySelector
from ..mc.transition import TransitionConfig, TransitionSystem
from ..runtime.address import Address, make_addresses
from ..runtime.churn import ChurnProcess
from ..runtime.network import NetworkModel
from ..workload import OpenLoopDriver, WorkloadSpec
from .registry import ScenarioSpec, SystemSpec, get_system
from .report import OWNED_COUNTERS, NodeReport, RunReport


def parse_mode(mode: Union[Mode, str, None]) -> Mode:
    """Accept a :class:`Mode`, its string value, or ``None`` (= off)."""
    if mode is None:
        return Mode.OFF
    if isinstance(mode, Mode):
        return mode
    try:
        return Mode(str(mode).lower().replace("_", "-"))
    except ValueError:
        known = ", ".join(m.value for m in Mode)
        raise ValueError(f"unknown mode {mode!r} (one of: {known})") from None


def run_search_scenario(spec: SystemSpec, scenario: ScenarioSpec, *,
                        seed: int = 0, max_states: Optional[int],
                        max_depth: Optional[int],
                        fixed: bool = False) -> RunReport:
    """Consequence prediction from a search scenario's scripted snapshot.

    ``scenario.build(fixed=...)`` yields the start state — with the paper's
    fixes applied when ``fixed`` is true — and the system's default
    properties are checked from it.  The bundled figure scenarios (RandTree
    Figures 2/9, Chord Figures 10/11, the Bullet' shadow-map state, the
    CRDT and KV-store races) all run through here.
    """
    built = scenario.build(fixed=fixed)
    protocol, snapshot = (built if isinstance(built, tuple)
                          else (built.protocol, built.global_state()))
    transition_system = TransitionSystem(
        protocol, TransitionConfig(enable_resets=scenario.resets,
                                   max_resets_per_node=1))
    result = consequence_prediction(
        transition_system, snapshot, list(spec.properties),
        SearchBudget(max_states=max_states, max_depth=max_depth))
    shortest = result.shortest_violation()
    by_property: dict[str, int] = {}
    for predicted in result.violations:
        name = predicted.violation.property_name
        by_property[name] = by_property.get(name, 0) + 1
    return RunReport(
        system=spec.name,
        scenario=scenario.name,
        mode="prediction",
        seed=seed,
        node_count=len(snapshot.nodes),
        wall_clock_seconds=result.stats.elapsed_seconds,
        outcome={
            "states_visited": result.stats.states_visited,
            "max_depth_reached": result.stats.max_depth_reached,
            "elapsed_seconds": result.stats.elapsed_seconds,
            "violations": len(result.violations),
            "properties_violated": sorted(result.unique_property_names()),
            "violations_by_property": dict(sorted(by_property.items())),
            "shortest_violation": (str(shortest.violation)
                                   if shortest is not None else None),
            "shortest_path": ([event.describe() for event in shortest.path]
                              if shortest is not None else []),
            "fixed": fixed,
        },
    )


class Experiment:
    """Fluent builder over a registered :class:`SystemSpec`."""

    def __init__(self, system: Union[str, SystemSpec]) -> None:
        self._spec = get_system(system) if isinstance(system, str) else system
        self._nodes = self._spec.default_nodes
        self._duration = self._spec.default_duration
        self._tick_interval = self._spec.tick_interval
        self._seed = 0
        self._mode = Mode.OFF
        self._cb_kwargs: dict[str, Any] = {}
        self._network: Optional[NetworkModel] = None
        self._churn_interval = self._spec.default_churn_interval
        self._scenario: Optional[str] = None
        self._options: dict[str, Any] = {}
        self._faults: list[Union[str, Fault]] = []
        self._fault_seed: Optional[int] = None
        self._fault_start_after: Optional[float] = None
        self._property_selectors: Optional[list[PropertySelector]] = None
        self._property_exclude: list[str] = []
        self._max_events = 500_000
        self._workload: Optional[WorkloadSpec] = None
        self._trace: Optional[Union[str, Tracer]] = None
        self._metrics = False
        self._backend = "sim"
        self._backend_options: dict[str, Any] = {}
        #: builder knobs the caller set explicitly: they win over a
        #: scenario's presets, and a search warns about the ones it cannot
        #: honor.
        self._explicit: set[str] = set()

    @property
    def spec(self) -> SystemSpec:
        return self._spec

    def _note(self, setting: str, explicit: bool) -> None:
        """Record (or forget) that ``setting`` was moved off its default."""
        (self._explicit.add if explicit else self._explicit.discard)(setting)

    # ---------------------------------------------------------- configuration

    def nodes(self, count: int) -> "Experiment":
        if count < 1:
            raise ValueError("an experiment needs at least one node")
        self._nodes = count
        self._explicit.add("nodes")
        return self

    def duration(self, seconds: float) -> "Experiment":
        if seconds <= 0:  # the clock would stand still or run backwards
            raise ValueError(
                f"an experiment needs a positive duration, not {seconds:g}s")
        self._duration = float(seconds)
        self._explicit.add("duration")
        return self

    def ticks(self, count: int) -> "Experiment":
        """Duration expressed in controller tick intervals."""
        return self.duration(float(count) * self._tick_interval)

    def seed(self, seed: int) -> "Experiment":
        self._seed = int(seed)
        return self

    def max_events(self, count: int) -> "Experiment":
        self._max_events = int(count)
        self._explicit.add("max_events")
        return self

    def network(self, model: Optional[NetworkModel] = None, *,
                rtt: Optional[float] = None,
                loss: Optional[float] = None,
                jitter: Optional[float] = None,
                rst_loss: Optional[float] = None) -> "Experiment":
        """Use an explicit :class:`NetworkModel` or tweak the default one."""
        self._explicit.add("network")
        if model is not None:
            self._network = model
            return self
        kwargs: dict[str, Any] = {}
        if rtt is not None:
            kwargs["default_rtt"] = rtt
        if jitter is not None:
            kwargs["jitter"] = jitter
        if rst_loss is not None:
            kwargs["rst_loss_probability"] = rst_loss
        if loss is not None:
            kwargs["loss_fn"] = lambda src, dst, rng: loss
        self._network = NetworkModel(**kwargs)
        return self

    def churn(self, enabled: bool = True, *,
              rate: Optional[float] = None,
              interval: Optional[float] = None) -> "Experiment":
        """Configure churn: ``rate`` in events/second or a mean ``interval``."""
        self._explicit.add("churn")
        if not enabled:
            self._churn_interval = None
            return self
        if rate is not None and interval is not None:
            raise ValueError("pass either rate or interval, not both")
        if rate is not None:
            if rate <= 0:
                raise ValueError("churn rate must be positive")
            self._churn_interval = 1.0 / rate
        elif interval is not None:
            self._churn_interval = float(interval)
        elif self._churn_interval is None:
            self._churn_interval = self._spec.default_churn_interval or 60.0
        return self

    def faults(self, *faults: Union[str, Fault],
               seed: Optional[int] = None,
               start_after: Optional[float] = None) -> "Experiment":
        """Inject faults during the run (see :mod:`repro.faults`).

        Positional arguments are preset names (``"partition"``,
        ``"chaos"``, ...) and/or explicit :class:`~repro.faults.Fault`
        instances::

            Experiment("paxos").faults(Partition(every=120, duration=20))

        ``seed`` fixes the nemesis seed independently of the run seed;
        ``start_after`` delays the first injection.
        """
        if faults:
            self._explicit.add("faults")
        self._faults.extend(faults)
        if seed is not None:
            self._fault_seed = int(seed)
        if start_after is not None:
            self._fault_start_after = float(start_after)
        return self

    def crystalball(self, mode: Union[Mode, str, None] = None, *,
                    engine: Optional[str] = None,
                    budget: Optional[SearchBudget] = None,
                    transition: Optional[TransitionConfig] = None,
                    checking: Optional[CheckingPolicy] = None,
                    delta_checkpoints: Optional[bool] = None,
                    udp_checkpoint_requests: Optional[bool] = None,
                    ) -> "Experiment":
        """Attach CrystalBall controllers in the given mode (debug when
        none is given).

        The scale knobs: ``checking`` samples deep checking across
        controllers (a :class:`~repro.core.controller.CheckingPolicy`),
        ``delta_checkpoints`` accounts checkpoint answers as deltas
        against the peer's last-seen state, and ``udp_checkpoint_requests``
        sends snapshot-gather requests over UDP.
        """
        self._mode = Mode.DEBUG if mode is None else parse_mode(mode)
        self._cb_kwargs = {
            name: value
            for name, value in (("engine", engine), ("search_budget", budget),
                                ("transition", transition),
                                ("checking", checking),
                                ("delta_checkpoints", delta_checkpoints),
                                ("udp_checkpoint_requests",
                                 udp_checkpoint_requests))
            if value is not None}
        # The budget is not recorded: a search scenario honours it.
        self._explicit.update(self._cb_kwargs.keys() - {"search_budget"})
        return self

    def mode(self, mode: Union[Mode, str]) -> "Experiment":
        """Shorthand for :meth:`crystalball` keeping other settings."""
        self._mode = parse_mode(mode)
        return self

    def workload(self, workload: Union[str, WorkloadSpec, None], *,
                 rate: Optional[float] = None,
                 burst: Optional[int] = None,
                 keys: Optional[int] = None,
                 distribution: Optional[str] = None,
                 start: Optional[float] = None,
                 duration: Optional[float] = None) -> "Experiment":
        """Drive the live run with an open-loop request stream.

        ``workload`` is a workload name registered on the system (see
        ``python -m repro list``) or an explicit
        :class:`~repro.workload.WorkloadSpec`; ``None`` turns the stream
        back off.  The keyword arguments override the registered traffic
        shape (see :class:`~repro.workload.TrafficSpec`)::

            report = (Experiment("chord")
                      .nodes(1000)
                      .workload("lookups", rate=2000, burst=50)
                      .run())
            print(report.workload["requests_completed"])
        """
        if workload is None:
            self._workload = None
            self._explicit.discard("workload")
            return self
        spec = (self._spec.workload(workload) if isinstance(workload, str)
                else workload)
        overrides = {
            key: value
            for key, value in (("rate", rate), ("burst", burst),
                               ("keys", keys),
                               ("key_distribution", distribution),
                               ("start", start), ("duration", duration))
            if value is not None}
        self._workload = spec.with_traffic(**overrides) if overrides else spec
        self._explicit.add("workload")
        return self

    def backend(self, name: str, **options: Any) -> "Experiment":
        """Select the execution backend for the live run.

        ``"sim"`` (the default) is the discrete-event simulator; ``"tcp"``
        runs every node behind a real TCP socket, shipping service
        and control messages — checkpoints included — as length-prefixed
        compact-bytes frames (see :mod:`repro.backends`).  The deterministic
        coordinator keeps seeded runs equivalent across backends.  Keyword
        arguments are backend-specific options, e.g.::

            Experiment("randtree").backend("tcp", host="127.0.0.1")
        """
        known = backend_names()
        if name not in known:
            raise ValueError(
                f"unknown backend {name!r} (one of: {', '.join(known)})")
        self._backend = name
        self._backend_options = dict(options)
        self._note("backend", name != "sim" or bool(options))
        return self

    def scenario(self, name: str) -> "Experiment":
        """Run the named scenario: a live preset folded under this
        builder's explicit settings, or an offline search (see
        :class:`~repro.api.registry.ScenarioSpec`)."""
        self._spec.scenario(name)  # fail fast on unknown names
        self._scenario = name
        return self

    def options(self, **options: Any) -> "Experiment":
        """System- or scenario-specific options (e.g. ``fixed=True``)."""
        self._options.update(options)
        return self

    def properties(self, *selectors: PropertySelector,
                   exclude: Sequence[str] = ()) -> "Experiment":
        """Select which properties the run checks, replacing the system's
        default set.

        Selectors are glob patterns over registered property ids
        (``"randtree.*"``, ``"*.agreement"``, exact ids) and/or property
        instances; ``exclude`` patterns are applied after inclusion::

            Experiment("randtree").properties(
                "randtree.*", exclude=["randtree.recovery_timer_running"])

        Patterns resolve against the global registry when the experiment
        runs, in registration order (so a namespace selection reproduces
        the system's historical check order).  A pattern matching nothing
        raises; an explicit empty selection (no arguments) disables
        property checking entirely.
        """
        self._property_selectors = list(selectors)
        self._property_exclude = list(exclude)
        self._explicit.add("properties")
        return self

    def trace(self, path: Union[str, Tracer, None]) -> "Experiment":
        """Record a structured JSONL execution trace of the live run.

        ``path`` is the output file; inspect it afterwards with
        ``python -m repro trace <path>`` (summary, filtering, Chrome
        export, causal-chain queries).  A :class:`~repro.obs.Tracer`
        instance is also accepted (e.g. ``MemoryTracer`` in tests);
        ``None`` turns tracing back off.  Tracing never perturbs the run:
        a seeded run is bit-identical with tracing on or off.
        """
        self._trace = path
        self._note("trace", path is not None)
        return self

    def metrics(self, enabled: bool = True) -> "Experiment":
        """Collect ``repro.obs`` metrics into ``RunReport.metrics``.

        Counters and gauges are deterministic per seed; histograms hold
        wall-clock timings (controller phases, model-checker runs).
        """
        self._metrics = bool(enabled)
        self._note("metrics", self._metrics)
        return self

    def resolved_properties(self) -> list[Property]:
        """The property set a live run of this experiment would check."""
        if self._property_selectors is None:
            return list(self._spec.properties)
        return resolve_properties(self._property_selectors,
                                  exclude=self._property_exclude)

    # ------------------------------------------------------------------- run

    def _crystalball_config(self) -> CrystalBallConfig:
        kwargs = dict(self._cb_kwargs)
        kwargs.setdefault("search_budget", self.default_budget())
        kwargs.setdefault("transition", self._spec.transition_factory())
        return CrystalBallConfig(mode=self._mode, **kwargs)

    def default_budget(self) -> SearchBudget:
        """The prediction budget of a live run that sets none: the system's
        default, under the bounds the selected scenario declares."""
        scenario = self._spec.scenarios.get(self._scenario)
        bounds = {bound: getattr(scenario, bound)
                  for bound in ("max_states", "max_depth")
                  if getattr(scenario, bound, None) is not None}
        return replace(self._spec.search_budget
                       or CrystalBallConfig().search_budget, **bounds)

    def _with_preset(self, scenario: ScenarioSpec) -> "Experiment":
        """A copy of this builder with ``scenario`` folded in as defaults.

        Explicit settings win whatever the call order; the scenario's
        faults come first and the builder's own are added to them.
        """
        folded = copy.copy(self)
        # Its own set: folding may record settings the caller never made.
        folded._explicit = explicit = set(self._explicit)
        if "nodes" not in explicit and scenario.nodes is not None:
            folded._nodes = scenario.nodes
        if "duration" not in explicit and scenario.duration is not None:
            folded._duration = scenario.duration
        if "churn" not in explicit:
            # The named faults are the only adversary, so the schedule
            # reproduces from the seed alone.
            folded._churn_interval = None
        if "network" not in explicit and scenario.network:
            folded.network(**scenario.network)
        if scenario.tick_interval is not None:
            folded._tick_interval = scenario.tick_interval
        folded._options = {**scenario.options, **self._options}
        scripted = list(scenario.faults)
        if scenario.faults_factory is not None:
            scripted.extend(scenario.faults_factory(folded._duration,
                                                    folded.addresses()))
        folded._faults = scripted + self._faults
        return folded

    def _budget(self) -> Optional[SearchBudget]:
        """The explicitly configured prediction budget, if any."""
        return self._cb_kwargs.get("search_budget")

    def run(self) -> RunReport:
        """Run the experiment and return its :class:`RunReport`.

        Without a scenario, and for a *live* scenario (folded in as
        defaults first), this is a live deployment driven from the
        builder's fields.  A *search* scenario runs offline consequence
        prediction: it takes the budget and warns about the rest.
        """
        if self._scenario is None:
            return self._run_live()
        scenario = self._spec.scenario(self._scenario)
        if scenario.kind == "live":
            return self._with_preset(scenario)._run_live(scenario)
        options = {"fixed": False, "max_states": scenario.max_states,
                   "max_depth": scenario.max_depth}
        budget = self._budget()
        for bound in ("max_states", "max_depth"):
            if budget is not None and getattr(budget, bound) is not None:
                options[bound] = getattr(budget, bound)
        # mode/seed are reserved: they come from the builder, never options.
        unknown = set(self._options) - set(options)
        if unknown:
            raise ValueError(
                f"unknown option(s) for scenario {scenario.name!r}: "
                f"{sorted(unknown)} (accepted: {sorted(options)}; set mode "
                f"and seed through the builder, not options)")
        options.update(self._options)
        ignored = set(self._explicit)
        if self._fault_seed is not None:
            ignored.add("fault_seed")
        if self._fault_start_after is not None:
            ignored.add("fault_start_after")
        if ignored:
            warnings.warn(
                f"scenario {scenario.name!r} runs a scripted schedule and "
                f"ignores these builder settings: {sorted(ignored)}",
                UserWarning, stacklevel=2)
        if self._mode not in (Mode.OFF, Mode.DEBUG):
            # There is no live execution to steer, so any mode beyond
            # off/debug would silently measure nothing.
            warnings.warn(
                f"scenario {scenario.name!r} is an offline prediction "
                f"search; mode {self._mode.value!r} has no effect on it",
                UserWarning, stacklevel=2)
        return run_search_scenario(self._spec, scenario, seed=self._seed,
                                   **options)

    def _run_live(self, scenario: Optional[ScenarioSpec] = None) -> RunReport:
        """The live deployment: staggered joins, optional churn, faults,
        workload and CrystalBall, on the selected backend.  ``scenario`` is
        the live scenario already folded into this builder, for the option
        names it declares and its ``schedule`` / ``outcome`` hooks.  Every
        run arms its schedule (the scenario's, else the system's, else the
        joins) at absolute times, then runs once to ``duration``.

        The event ordering is part of the contract: seeded runs stay
        reproducible.
        """
        started = time.perf_counter()
        spec = self._spec
        accepted = set(spec.options) | set(
            scenario.options if scenario is not None else ())
        unknown = set(self._options) - accepted
        if unknown:
            raise ValueError(
                f"unknown option(s) for a {spec.name!r} live run: "
                f"{sorted(unknown)} (accepted: {sorted(accepted)})")
        properties = self.resolved_properties()
        # The protocol configuration gets its own Address objects: checkpoint
        # sizes are pickle sizes, pickle writes a shared object once, and the
        # pinned ``checkpoint_bytes_sent`` counts assume no sharing.
        protocol_factory = spec.protocol_factory(self.addresses(),
                                                 self._options)
        addresses = self.addresses()
        tracer = self._trace
        if tracer is not None and not isinstance(tracer, Tracer):
            tracer = JsonlTracer(tracer)
        obs = ObsContext(tracer=tracer,
                         metrics=MetricsRegistry() if self._metrics else None)
        sim = make_backend(self._backend, protocol_factory,
                           self._network or NetworkModel(), seed=self._seed,
                           tick_interval=self._tick_interval, obs=obs,
                           options=dict(self._backend_options))
        if tracer is not None:
            tracer.record(
                "meta", system=spec.name, scenario=self._scenario,
                mode=self._mode.value, seed=self._seed, nodes=self._nodes,
                backend=None if self._backend == "sim" else self._backend)
        for addr in addresses:
            sim.add_node(addr)

        controllers: dict[Address, CrystalBallController] = {}
        if self._mode is not Mode.OFF:
            controllers = attach_crystalball(
                sim, properties, config=self._crystalball_config())

        monitor = LivePropertyMonitor(properties).install(sim)

        nemesis: Optional[Nemesis] = None
        if self._faults:
            # The quiet period before the first fault defaults to one join
            # round; the nemesis seed derives from the run seed.
            start_after = (self._fault_start_after
                           if self._fault_start_after is not None
                           else min(self._nodes * spec.join_spacing,
                                    self._duration * 0.1))
            nemesis = make_nemesis(
                self._faults,
                duration=self._duration,
                seed=(self._fault_seed if self._fault_seed is not None
                      else self._seed + 13),
                start_after=start_after,
            )
            if spec.message_mutator is not None:
                # Byzantine faults that carry no mutator get the system's
                # protocol-aware one.
                for fault in nemesis.faults:
                    if (isinstance(fault, MutatingFault)
                            and fault.mutator is None):
                        fault.mutator = spec.message_mutator
            nemesis.install(sim)

        schedule = getattr(scenario, "schedule", None) or spec.schedule
        if schedule is not None:
            schedule(sim, addresses, self._options, self._duration)
        elif spec.join_call is not None:
            # Staggered joins: the bootstrap node first, then one node
            # every ``join_spacing`` seconds.
            for index, addr in enumerate(addresses):
                sim.schedule_app(1.0 + index * spec.join_spacing, addr,
                                 spec.join_call, {})

        churn: Optional[ChurnProcess] = None
        if self._churn_interval is not None:
            churn = ChurnProcess(nodes=addresses,
                                 mean_interval=self._churn_interval,
                                 seed=self._seed + 7,
                                 stop_after=self._duration * 0.9)
            churn.install(sim)

        driver: Optional[OpenLoopDriver] = None
        if self._workload is not None:
            driver = OpenLoopDriver(self._workload, addresses,
                                    seed=self._seed).install(sim)

        sim.run(until=self._duration, max_events=self._max_events)

        if nemesis is not None:
            # Strip still-open fault windows so a caller-supplied network
            # model carries no residue into the next run.
            nemesis.teardown(sim)

        # Liveness obligations whose deadline passed after the last event
        # still count; finalize is a no-op for pure-safety property sets.
        monitor.finalize(sim.now)

        if tracer is not None:
            tracer.record("run_end", sim.now, events=sim.events_executed)
        obs.close()

        report = RunReport(
            system=spec.name,
            scenario=self._scenario,
            mode=self._mode.value,
            backend=self._backend,
            seed=self._seed,
            node_count=len(sim.nodes),
            simulated_seconds=sim.now,
            churn_events=churn.events_injected if churn is not None else 0,
            nodes=[NodeReport.from_controller(controllers[addr])
                   for addr in sorted(controllers)],
            monitor=monitor.report(),
            outcome=spec.collect(sim) if spec.collect is not None else {},
            faults=nemesis.report() if nemesis is not None else {},
            workload=driver.report() if driver is not None else {},
            simulator=sim,
            controllers=controllers,
            live_monitor=monitor,
        )
        if scenario is not None and scenario.outcome is not None:
            report.outcome = scenario.outcome(report)
        wire_report = getattr(sim, "wire_report", None)
        if wire_report is not None:
            report.outcome["wire"] = wire_report()
        if obs.metrics is not None:
            # Last, so every owner's count (the wire included) is final.
            report.metrics = obs.metrics.snapshot({
                name: count(report) for name, count in OWNED_COUNTERS.items()})
        report.wall_clock_seconds = time.perf_counter() - started
        return report

    def addresses(self) -> list[Address]:
        return make_addresses(self._nodes, start=1)
