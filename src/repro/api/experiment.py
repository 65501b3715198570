"""The fluent :class:`Experiment` builder and the generic live-run driver.

``Experiment`` is the single front door to the reproduction: pick a
registered system, chain configuration calls, and ``run()`` — either a named
scripted scenario or a generic live deployment with staggered joins, churn
and CrystalBall controllers::

    report = (Experiment("chord")
              .nodes(24)
              .network(loss=0.01)
              .churn(rate=1 / 60)
              .crystalball(mode="steering", engine="parallel")
              .duration(400)
              .run())
    print(report.accounting())

:class:`LiveRun` is the underlying driver; it always returns a
:class:`~repro.api.report.RunReport`.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

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
from ..mc.search import SearchBudget, SearchResult
from ..obs import JsonlTracer, MetricsRegistry, ObsContext, Tracer
from ..properties import Property, SafetyProperty, resolve_properties
from ..properties.registry import PropertySelector
from ..mc.transition import TransitionConfig, TransitionSystem
from ..runtime.address import Address, make_addresses
from ..runtime.churn import ChurnProcess
from ..runtime.network import NetworkModel
from ..runtime.protocol import Protocol
from ..runtime.simulator import Simulator
from ..workload import OpenLoopDriver, WorkloadSpec
from .registry import ScenarioSpec, SystemSpec, get_system
from .report import NodeReport, RunReport


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


def build_run_report(
    *,
    system: str,
    scenario: Optional[str],
    mode: Mode,
    seed: int,
    sim: Simulator,
    controllers: Mapping[Address, CrystalBallController],
    monitor: Optional[LivePropertyMonitor] = None,
    churn_events: int = 0,
    wall_clock_seconds: float = 0.0,
    outcome: Optional[dict] = None,
    nemesis: Optional[Nemesis] = None,
    metrics: Optional[MetricsRegistry] = None,
    workload: Optional[dict] = None,
    backend: str = "sim",
) -> RunReport:
    """Assemble a :class:`RunReport` from the live objects of one run."""
    return RunReport(
        system=system,
        scenario=scenario,
        mode=mode.value,
        backend=backend,
        seed=seed,
        node_count=len(sim.nodes),
        simulated_seconds=sim.now,
        wall_clock_seconds=wall_clock_seconds,
        churn_events=churn_events,
        nodes=[NodeReport.from_controller(controllers[addr])
               for addr in sorted(controllers)],
        monitor=monitor.report() if monitor is not None else {},
        outcome=outcome or {},
        faults=nemesis.report() if nemesis is not None else {},
        metrics=metrics.snapshot() if metrics is not None else {},
        workload=workload or {},
        simulator=sim,
        controllers=dict(controllers),
        live_monitor=monitor,
    )


def warn_scenario_mode_noop(mode: Union[Mode, str, None], scenario: str) -> None:
    """Warn when a steering/ISC mode is requested for an offline search.

    The figure scenarios run consequence prediction from a scripted
    snapshot; there is no live execution to steer, so any mode beyond
    off/debug would silently measure nothing.
    """
    parsed = parse_mode(mode)
    if parsed not in (Mode.OFF, Mode.DEBUG):
        warnings.warn(
            f"scenario {scenario!r} is an offline prediction search; "
            f"mode {parsed.value!r} has no effect on it",
            UserWarning, stacklevel=3)


def report_from_search(
    *,
    system: str,
    scenario: Optional[str],
    result: SearchResult,
    seed: int = 0,
    node_count: int = 0,
    extra_outcome: Optional[dict] = None,
) -> RunReport:
    """Wrap an offline search (a scripted figure scenario) into a report."""
    shortest = result.shortest_violation()
    by_property: dict[str, int] = {}
    for predicted in result.violations:
        name = predicted.violation.property_name
        by_property[name] = by_property.get(name, 0) + 1
    outcome = {
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
    }
    outcome.update(extra_outcome or {})
    return RunReport(
        system=system,
        scenario=scenario,
        mode="prediction",
        seed=seed,
        node_count=node_count,
        simulated_seconds=0.0,
        wall_clock_seconds=result.stats.elapsed_seconds,
        outcome=outcome,
    )


def make_search_scenario_runner(
    *,
    system: str,
    scenario: str,
    properties: Sequence[SafetyProperty],
    prepare: Callable[[bool], tuple[Protocol, Any]],
    default_max_states: int,
    default_max_depth: int,
    resets: bool = True,
    max_resets_per_node: int = 1,
) -> Callable[..., RunReport]:
    """Build a :class:`~repro.api.registry.ScenarioSpec` runner that runs
    consequence prediction from a scripted snapshot.

    ``prepare(fixed)`` returns ``(protocol, snapshot)`` — with the paper's
    fixes applied when ``fixed`` is true.  The bundled figure scenarios
    (RandTree Figures 2/9, Chord Figures 10/11, the Bullet' shadow-map
    state) all share this shape.
    """

    def run(*, mode=None, seed: int = 0, fixed: bool = False,
            max_states: int = default_max_states,
            max_depth: int = default_max_depth, **_ignored) -> RunReport:
        warn_scenario_mode_noop(mode, scenario)
        protocol, snapshot = prepare(fixed)
        transition_system = TransitionSystem(
            protocol,
            TransitionConfig(enable_resets=resets,
                             max_resets_per_node=max_resets_per_node))
        result = consequence_prediction(
            transition_system, snapshot, list(properties),
            SearchBudget(max_states=max_states, max_depth=max_depth))
        return report_from_search(system=system, scenario=scenario,
                                  result=result, seed=seed,
                                  node_count=len(snapshot.nodes),
                                  extra_outcome={"fixed": fixed})

    return run


def make_fault_scenario_runner(
    *,
    system: str,
    faults: Sequence[Union[str, "Fault"]] = (),
    faults_factory: Optional[
        Callable[[float, Sequence[Address]], Sequence[Union[str, "Fault"]]]] = None,
    default_nodes: int = 6,
    default_duration: float = 200.0,
    churn: bool = False,
    options: Optional[Mapping[str, Any]] = None,
) -> Callable[..., "RunReport"]:
    """Build a :class:`~repro.api.registry.ScenarioSpec` runner for a named
    live fault scenario.

    The runner drives a generic live run of ``system`` with a nemesis built
    from ``faults`` (preset names / instances) plus whatever
    ``faults_factory(duration, addresses)`` contributes — the factory hook
    exists for faults that target specific members, e.g. crashing the Paxos
    proposer.  Churn is off by default so the named faults are the only
    adversary and the schedule is reproducible from the seed alone.
    """

    def run(*, mode=None, seed: int = 0,
            node_count: int = default_nodes,
            max_time: float = default_duration,
            fault_seed: Optional[int] = None,
            **_ignored) -> "RunReport":
        experiment = (Experiment(system)
                      .nodes(node_count)
                      .duration(max_time)
                      .seed(seed)
                      .mode(parse_mode(mode))
                      .churn(churn))
        fault_list: list[Union[str, Fault]] = list(faults)
        if faults_factory is not None:
            fault_list.extend(
                faults_factory(max_time, make_addresses(node_count)))
        experiment.faults(*fault_list, seed=fault_seed)
        if options:
            experiment.options(**options)
        return experiment.run()

    return run


@dataclass
class LiveRun:
    """A live deployment: staggered joins, optional churn, CrystalBall.

    This is the generic driver behind :meth:`Experiment.run`.  The event
    ordering is part of the contract: seeded runs stay reproducible.
    """

    protocol_factory: Callable[[], Protocol]
    properties: Sequence[Property]
    node_count: int = 6
    duration: float = 600.0
    join_spacing: float = 5.0
    churn_mean_interval: Optional[float] = 60.0
    crystalball_mode: Mode = Mode.OFF
    crystalball_config: Optional[CrystalBallConfig] = None
    #: which nodes run the model checker (None = all when CrystalBall is on).
    checker_nodes: Optional[Sequence[Address]] = None
    network: Optional[NetworkModel] = None
    seed: int = 0
    tick_interval: float = 10.0
    max_events: int = 500_000
    #: Fault injection: preset names and/or Fault instances expanded into a
    #: seeded Nemesis for this run (see repro.faults).
    faults: Sequence[Union[str, Fault]] = ()
    #: Nemesis seed; None derives it from the run seed.
    fault_seed: Optional[int] = None
    #: Quiet period before the first fault (defaults to one join round).
    fault_start_after: Optional[float] = None
    #: Byzantine payload mutator handed to MutatingFault instances that
    #: carry none — normally the system spec's registered protocol-aware
    #: hook (see SystemSpec.message_mutator).
    message_mutator: Optional[Callable[..., Any]] = None
    #: Dirty-node fast path for node-scoped properties in the live monitor
    #: (bit-identical records either way; False forces a full re-check per
    #: event, which is what the monitor-overhead benchmark compares).
    incremental_monitor: bool = True
    address_start: int = 1
    #: application call used for staggered joins; None skips join scheduling.
    join_call: Optional[str] = "join"
    #: open-loop request stream driven through the run (see repro.workload).
    workload: Optional[WorkloadSpec] = None
    #: custom initial scheduling, replaces the join schedule when set.
    schedule: Optional[Callable[[Simulator, Sequence[Address], Mapping], None]] = None
    #: outcome extraction merged into ``RunReport.outcome``.
    collect: Optional[Callable[[Simulator], dict]] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    system_name: str = "custom"
    scenario_name: Optional[str] = None
    #: execution backend: "sim" (default) or "tcp" (real asyncio sockets);
    #: see :mod:`repro.backends`.
    backend: str = "sim"
    #: backend-specific settings (e.g. host/port_base for "tcp"),
    #: validated by the backend class.
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    #: Structured tracing: a JSONL output path or a ready
    #: :class:`~repro.obs.Tracer` instance; None (default) disables it.
    trace: Optional[Union[str, Tracer]] = None
    #: Metrics: True builds a fresh registry snapshotted into
    #: ``RunReport.metrics``; a :class:`~repro.obs.MetricsRegistry`
    #: instance is used as-is; False (default) disables metrics.
    metrics: Union[bool, MetricsRegistry] = False

    def addresses(self) -> list[Address]:
        return make_addresses(self.node_count, start=self.address_start)

    def _build_obs(self) -> ObsContext:
        tracer: Optional[Tracer] = None
        if self.trace is not None:
            tracer = (self.trace if isinstance(self.trace, Tracer)
                      else JsonlTracer(self.trace))
        registry: Optional[MetricsRegistry] = None
        if self.metrics:
            registry = (self.metrics
                        if isinstance(self.metrics, MetricsRegistry)
                        else MetricsRegistry())
        return ObsContext(tracer=tracer, metrics=registry)

    def run(self) -> RunReport:
        started = time.perf_counter()
        addresses = self.addresses()
        network = self.network or NetworkModel()
        obs = self._build_obs()
        sim = make_backend(self.backend, self.protocol_factory, network,
                           seed=self.seed, tick_interval=self.tick_interval,
                           obs=obs, options=self.backend_options)
        if obs.tracer is not None:
            obs.tracer.meta(
                system=self.system_name, scenario=self.scenario_name,
                mode=self.crystalball_mode.value, seed=self.seed,
                nodes=self.node_count, backend=self.backend)
        for addr in addresses:
            sim.add_node(addr)

        controllers: dict[Address, CrystalBallController] = {}
        if self.crystalball_mode is not Mode.OFF:
            if self.crystalball_config is not None:
                # Work on a copy so the caller's config object is never
                # mutated (it may be reused across experiments).
                config = self.crystalball_config.copy()
                config.mode = self.crystalball_mode
            else:
                config = CrystalBallConfig(mode=self.crystalball_mode)
            controllers = attach_crystalball(
                sim, self.properties, config=config, nodes=self.checker_nodes)

        monitor = LivePropertyMonitor(
            self.properties, incremental=self.incremental_monitor).install(sim)

        nemesis: Optional[Nemesis] = None
        if self.faults:
            start_after = (self.fault_start_after
                           if self.fault_start_after is not None
                           else min(self.node_count * self.join_spacing,
                                    self.duration * 0.1))
            nemesis = make_nemesis(
                self.faults,
                duration=self.duration,
                seed=(self.fault_seed if self.fault_seed is not None
                      else self.seed + 13),
                start_after=start_after,
            )
            if self.message_mutator is not None:
                for fault in nemesis.faults:
                    if (isinstance(fault, MutatingFault)
                            and fault.mutator is None):
                        fault.mutator = self.message_mutator
            nemesis.install(sim)

        if self.schedule is not None:
            self.schedule(sim, addresses, self.options)
        elif self.join_call is not None:
            # Staggered joins: the bootstrap node first, then one node every
            # ``join_spacing`` seconds.
            for index, addr in enumerate(addresses):
                sim.schedule_app(1.0 + index * self.join_spacing, addr,
                                 self.join_call, {})

        churn: Optional[ChurnProcess] = None
        if self.churn_mean_interval is not None:
            churn = ChurnProcess(nodes=addresses,
                                 mean_interval=self.churn_mean_interval,
                                 seed=self.seed + 7,
                                 stop_after=self.duration * 0.9)
            churn.install(sim)

        driver: Optional[OpenLoopDriver] = None
        if self.workload is not None:
            driver = OpenLoopDriver(self.workload, addresses,
                                    seed=self.seed).install(sim)

        sim.run(until=self.duration, max_events=self.max_events)
        churn_events = churn.events_injected if churn is not None else 0

        if nemesis is not None:
            # Strip still-open fault windows so a caller-supplied network
            # model carries no residue into the next run.
            nemesis.teardown(sim)

        # Liveness obligations whose deadline passed after the last event
        # still count; finalize is a no-op for pure-safety property sets.
        monitor.finalize(sim.now)

        if obs.tracer is not None:
            obs.tracer.run_end(sim.now, sim.events_executed)
        obs.close()

        outcome = self.collect(sim) if self.collect is not None else {}
        wire_report = getattr(sim, "wire_report", None)
        if wire_report is not None:
            outcome = {**outcome, "wire": wire_report()}
        return build_run_report(
            system=self.system_name,
            scenario=self.scenario_name,
            mode=self.crystalball_mode,
            seed=self.seed,
            sim=sim,
            controllers=controllers,
            monitor=monitor,
            churn_events=churn_events,
            wall_clock_seconds=time.perf_counter() - started,
            outcome=outcome,
            nemesis=nemesis,
            metrics=obs.metrics,
            workload=driver.report() if driver is not None else None,
            backend=self.backend,
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
        self._cb_config: Optional[CrystalBallConfig] = None
        self._cb_kwargs: dict[str, Any] = {}
        self._checker_nodes: Optional[Sequence[Address]] = None
        self._network: Optional[NetworkModel] = None
        #: simple network kwargs (rtt/loss/jitter/rst_loss) when network()
        #: was configured from scalars — what a sweep can carry to workers;
        #: None means an explicit NetworkModel instance was supplied.
        self._network_params: Optional[dict[str, float]] = {}
        self._churn_interval = (self._spec.default_churn_interval
                                if self._spec.supports_churn else None)
        self._scenario: Optional[str] = None
        self._options: dict[str, Any] = {}
        self._faults: list[Union[str, Fault]] = []
        self._fault_seed: Optional[int] = None
        self._fault_start_after: Optional[float] = None
        self._property_selectors: Optional[list[PropertySelector]] = None
        self._property_exclude: list[str] = []
        self._incremental_monitor = True
        self._max_events = 500_000
        self._workload: Optional[WorkloadSpec] = None
        #: registered name behind _workload (None for an inline spec) and
        #: the traffic overrides applied — what a sweep can carry.
        self._workload_name: Optional[str] = None
        self._workload_overrides: dict[str, Any] = {}
        self._trace: Optional[Union[str, Tracer]] = None
        self._metrics = False
        self._backend = "sim"
        self._backend_options: dict[str, Any] = {}
        #: builder knobs the caller set explicitly (used to forward what a
        #: scripted scenario can honor and warn about what it cannot).
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
        self._duration = float(seconds)
        self._explicit.add("duration")
        return self

    def ticks(self, count: int) -> "Experiment":
        """Duration expressed in controller tick intervals."""
        self._duration = float(count) * self._tick_interval
        self._explicit.add("duration")
        return self

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
            self._network_params = None
            return self
        self._network_params = {
            key: value
            for key, value in (("rtt", rtt), ("loss", loss),
                               ("jitter", jitter), ("rst_loss", rst_loss))
            if value is not None}
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
               partition_every: Optional[float] = None,
               heal_after: Optional[float] = None,
               seed: Optional[int] = None,
               start_after: Optional[float] = None) -> "Experiment":
        """Inject faults during the run (see :mod:`repro.faults`).

        Positional arguments are preset names (``"partition"``,
        ``"chaos"``, ...) and/or explicit :class:`~repro.faults.Fault`
        instances.  ``partition_every``/``heal_after`` are a shorthand for
        the most common adversary::

            Experiment("paxos").faults(partition_every=120, heal_after=20)

        ``seed`` fixes the nemesis seed independently of the run seed;
        ``start_after`` delays the first injection.
        """
        from ..faults.types import Partition

        if faults or partition_every is not None:
            self._explicit.add("faults")
        self._faults.extend(faults)
        if partition_every is not None:
            self._faults.append(
                Partition(every=partition_every, duration=heal_after))
        elif heal_after is not None:
            raise ValueError("heal_after needs partition_every")
        if seed is not None:
            self._fault_seed = int(seed)
        if start_after is not None:
            self._fault_start_after = float(start_after)
        return self

    def crystalball(self, mode: Union[Mode, str, None] = None, *,
                    engine: Optional[str] = None,
                    budget: Optional[SearchBudget] = None,
                    transition: Optional[TransitionConfig] = None,
                    config: Optional[CrystalBallConfig] = None,
                    portfolio: Optional[bool] = None,
                    nodes: Optional[Sequence[Address]] = None,
                    immediate_check: Optional[bool] = None,
                    check_filter_safety: Optional[bool] = None,
                    checking: Optional[CheckingPolicy] = None,
                    delta_checkpoints: Optional[bool] = None,
                    batched_control_plane: Optional[bool] = None,
                    ) -> "Experiment":
        """Attach CrystalBall controllers in the given mode.

        ``mode`` defaults to the explicit config's mode when ``config`` is
        passed, and to debug otherwise.  The scale knobs: ``checking``
        samples deep checking across controllers (a
        :class:`~repro.core.controller.CheckingPolicy`),
        ``delta_checkpoints`` accounts checkpoint answers as deltas
        against the peer's last-seen state, and ``batched_control_plane``
        fans snapshot-gather requests out over UDP in one batch.
        """
        settings = {
            name: value
            for name, value in (("engine", engine), ("search_budget", budget),
                                ("transition", transition),
                                ("portfolio", portfolio),
                                ("immediate_check", immediate_check),
                                ("check_filter_safety", check_filter_safety),
                                ("checking", checking),
                                ("delta_checkpoints", delta_checkpoints),
                                ("batched_control_plane",
                                 batched_control_plane))
            if value is not None}
        if config is not None and settings:
            raise ValueError(
                "pass either an explicit config or individual crystalball "
                "settings (engine/budget/transition/...), not both")
        if mode is None:
            self._mode = config.mode if config is not None else Mode.DEBUG
        else:
            self._mode = parse_mode(mode)
        self._cb_config = config
        self._checker_nodes = nodes
        self._cb_kwargs = {
            {"portfolio": "portfolio_mode"}.get(name, name): value
            for name, value in settings.items()}
        # The budget is not recorded here: scenarios and sweeps look it up
        # in the config, where an explicit ``config=`` may also carry one.
        self._explicit.update(settings.keys() - {"search_budget"})
        if nodes is not None:
            self._explicit.add("checker_nodes")
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
            self._workload_name = None
            self._workload_overrides = {}
            self._explicit.discard("workload")
            return self
        if isinstance(workload, str):
            spec = self._spec.workload(workload)
            self._workload_name = workload
        else:
            spec = workload
            self._workload_name = None
        overrides = {
            key: value
            for key, value in (("rate", rate), ("burst", burst),
                               ("keys", keys),
                               ("key_distribution", distribution),
                               ("start", start), ("duration", duration))
            if value is not None}
        self._workload_overrides = overrides
        self._workload = spec.with_traffic(**overrides) if overrides else spec
        self._explicit.add("workload")
        return self

    def backend(self, name: str, **options: Any) -> "Experiment":
        """Select the execution backend for the live run.

        ``"sim"`` (the default) is the discrete-event simulator; ``"tcp"``
        runs every node behind a real asyncio TCP socket, shipping service
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
        """Run the named scripted scenario instead of a generic live run."""
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

    def incremental_monitor(self, enabled: bool = True) -> "Experiment":
        """Toggle the live monitor's dirty-node fast path (default on)."""
        self._incremental_monitor = bool(enabled)
        # Off is the non-default setting: scenario runs and sweeps cannot
        # honor it and must warn instead of silently measuring the fast path.
        self._note("incremental_monitor", not self._incremental_monitor)
        return self

    def resolved_properties(self) -> list[Property]:
        """The property set a live run of this experiment would check."""
        if self._property_selectors is None:
            return list(self._spec.properties)
        return resolve_properties(self._property_selectors,
                                  exclude=self._property_exclude)

    # ------------------------------------------------------------------- run

    def _crystalball_config(self) -> Optional[CrystalBallConfig]:
        if self._mode is Mode.OFF:
            return None
        if self._cb_config is not None:
            return self._cb_config
        kwargs = dict(self._cb_kwargs)
        if "search_budget" not in kwargs and self._spec.search_budget_factory:
            kwargs["search_budget"] = self._spec.search_budget_factory()
        kwargs.setdefault("transition", self._spec.transition_factory())
        return CrystalBallConfig(mode=self._mode, **kwargs)

    def _scenario_kwargs(self, scenario: ScenarioSpec) -> dict[str, Any]:
        """Builder settings forwarded into a scripted scenario run.

        Scenario runners script their own deployment, so only the subset of
        the builder surface the runner names in its signature translates;
        anything explicitly set that the scenario cannot honor is warned
        about rather than silently dropped.
        """
        named = {
            parameter.name
            for parameter in inspect.signature(scenario.run).parameters.values()
            if parameter.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                  inspect.Parameter.KEYWORD_ONLY)}
        # mode/seed are reserved: they come from the builder, never options.
        accepted = named - {"mode", "seed"}
        unknown = set(self._options) - accepted
        if unknown:
            raise ValueError(
                f"unknown option(s) for scenario {self._scenario!r}: "
                f"{sorted(unknown)} (accepted: {sorted(accepted)}; set mode "
                f"and seed through the builder, not options)")
        kwargs = dict(self._options)
        unsupported: set[str] = set()

        def forward(setting: str, key: str, value: Any) -> None:
            if key in named:
                kwargs.setdefault(key, value)
            else:
                unsupported.add(setting)

        # The only explicit settings a runner can take are its deployment
        # size and length; every other one is ignored, whatever it is.
        forwardable = {"nodes": ("node_count", self._nodes),
                       "duration": ("max_time", self._duration)}
        for setting in self._explicit:
            if setting in forwardable:
                forward(setting, *forwardable[setting])
            else:
                unsupported.add(setting)
        budget = self._cb_kwargs.get("search_budget")
        if budget is None and self._cb_config is not None:
            budget = self._cb_config.search_budget
        if budget is not None:
            if budget.max_states is not None:
                forward("budget", "max_states", budget.max_states)
            if budget.max_depth is not None:
                forward("budget", "max_depth", budget.max_depth)
        if self._fault_seed is not None:
            # Fault scenarios accept the nemesis seed; anything else warns.
            forward("fault_seed", "fault_seed", self._fault_seed)
        if unsupported:
            warnings.warn(
                f"scenario {self._scenario!r} runs a scripted schedule and "
                f"ignores these builder settings: {sorted(unsupported)}",
                UserWarning, stacklevel=3)
        return kwargs

    def run(self) -> RunReport:
        if self._scenario is not None:
            scenario = self._spec.scenario(self._scenario)
            report = scenario.run(mode=self._mode, seed=self._seed,
                                  **self._scenario_kwargs(scenario))
            report.system = self._spec.name
            report.scenario = self._scenario
            return report

        properties = self.resolved_properties()
        live = LiveRun(
            protocol_factory=self._spec.protocol_factory(
                self.addresses(), self._options),
            properties=properties,
            node_count=self._nodes,
            duration=self._duration,
            join_spacing=self._spec.join_spacing,
            churn_mean_interval=self._churn_interval,
            crystalball_mode=self._mode,
            crystalball_config=self._crystalball_config(),
            checker_nodes=self._checker_nodes,
            network=self._network,
            seed=self._seed,
            tick_interval=self._tick_interval,
            max_events=self._max_events,
            faults=tuple(self._faults),
            fault_seed=self._fault_seed,
            fault_start_after=self._fault_start_after,
            message_mutator=self._spec.message_mutator,
            incremental_monitor=self._incremental_monitor,
            workload=self._workload,
            join_call=self._spec.join_call,
            schedule=self._spec.schedule,
            collect=self._spec.collect,
            options=self._options,
            system_name=self._spec.name,
            trace=self._trace,
            metrics=self._metrics,
            backend=self._backend,
            backend_options=dict(self._backend_options),
        )
        return live.run()

    def sweep(self, *,
              seeds: Optional[Sequence[int]] = None,
              faults: Optional[Sequence[Union[str, Sequence[str], None]]] = None,
              modes: Optional[Sequence[str]] = None,
              scenarios: Optional[Sequence[Optional[str]]] = None,
              properties: Optional[
                  Sequence[Union[str, Sequence[str], None]]] = None,
              workloads: Optional[Sequence[Optional[str]]] = None,
              backends: Optional[Sequence[str]] = None,
              jobs: Optional[int] = None,
              out: Optional[Any] = None,
              resume: bool = False,
              progress: Optional[Callable[[dict], None]] = None):
        """Run a campaign sweeping axes over this experiment's base settings.

        Every axis defaults to the single value the builder holds (its
        seed, its fault presets, its mode, live run), so each added axis
        multiplies the matrix::

            report = (Experiment("randtree")
                      .duration(120)
                      .sweep(seeds=range(8),
                             faults=["partition", "chaos"],
                             modes=["off", "steering"],
                             jobs=4))
            print(report.totals["violations_avoided"])

        Cells execute across a ``multiprocessing`` pool (``jobs=None``
        sizes it from ``os.cpu_count()``); ``out`` streams every finished
        run into a JSONL result store and ``resume=True`` skips cells that
        store already holds.  Returns a
        :class:`~repro.campaign.CampaignReport`.

        Cells are rebuilt from plain data inside the workers, so only the
        serializable builder surface carries over: deployment settings,
        churn, simple ``network(...)`` scalars, options, and fault *preset
        names*.  Explicit :class:`NetworkModel` / ``Fault`` instances
        raise, and other uncarried explicit settings (engine, budget, ...)
        warn instead of silently changing the measurement.
        """
        from ..campaign import CampaignSpec, run_campaign
        from ..campaign.spec import AXES, RunSpec

        def named(values: Optional[Sequence[Any]]) -> tuple[str, ...]:
            return tuple(value for value in values or ()
                         if isinstance(value, str))

        given = {"scenarios": scenarios, "fault_presets": faults,
                 "seeds": seeds, "modes": modes, "properties": properties,
                 "workloads": workloads, "backends": backends}
        # What the builder holds, per cell field: the single value every
        # axis that is not swept defaults to.
        held = {"system": self._spec.name, "scenario": self._scenario,
                "faults": named(self._faults) or None, "seed": self._seed,
                "mode": self._mode.value,
                "properties": (named(self._property_selectors)
                               if self._property_selectors is not None
                               else None),
                "workload": self._workload_name, "backend": self._backend}
        # Instances cannot cross into worker processes: without the axis
        # they are the measurement (refuse); with it they are replaced.
        for axis_field, instances, what, remedy, dropped in (
                ("fault_presets", len(self._faults) - len(held["faults"] or ()),
                 "explicit Fault instances (the partition_every shorthand "
                 "included)",
                 "name fault presets instead, e.g. faults=['partition'] or "
                 ".faults('partition')",
                 "the faults= axis replaces the builder's fault list; its "
                 "explicit Fault instances are dropped from the sweep"),
                ("properties",
                 len(self._property_selectors or ())
                 - len(held["properties"] or ()),
                 "Property instances",
                 "select properties by id pattern instead, e.g. "
                 ".properties('randtree.*')",
                 "the properties= axis replaces the builder's property "
                 "selection; its Property instances are dropped from the "
                 "sweep"),
                ("workloads",
                 self._workload is not None and self._workload_name is None,
                 "an inline WorkloadSpec instance",
                 "register the workload on the system and select it by "
                 "name: .workload('lookups')",
                 "the workloads= axis replaces the builder's inline "
                 "WorkloadSpec; it is dropped from the sweep")):
            if instances and given[axis_field] is None:
                raise ValueError(f"sweep() cannot carry {what} into worker "
                                 f"processes; {remedy}")
            if instances:
                warnings.warn(dropped, UserWarning, stacklevel=2)
        if self._network_params is None:
            raise ValueError(
                "sweep() cannot carry an explicit NetworkModel instance "
                "into worker processes; configure the network from scalars "
                "instead: network(rtt=..., loss=..., jitter=..., "
                "rst_loss=...)")
        if self._backend_options:
            warnings.warn(
                "sweep() rebuilds each cell from plain data and drops the "
                "builder's backend options; cells run the backend with its "
                "defaults", UserWarning, stacklevel=2)
        # Whatever a RunSpec has no field for cannot reach the workers.
        # "metrics" carries implicitly: campaign workers always collect
        # metrics into each cell's report.
        carried = {spec_field.name
                   for spec_field in dataclasses.fields(RunSpec)} | {"metrics"}
        uncarried = self._explicit - carried
        if self._cb_config is not None or "search_budget" in self._cb_kwargs:
            uncarried = uncarried | {"crystalball config/budget"}
        if uncarried:
            warnings.warn(
                f"sweep() rebuilds each cell from plain data and ignores "
                f"these builder settings: {sorted(uncarried)}",
                UserWarning, stacklevel=2)
        spec = CampaignSpec(
            **{axis.field: (list(given[axis.field])
                            if given.get(axis.field) is not None
                            else [held[axis.cell]])
               for axis in AXES},
            properties_exclude=tuple(self._property_exclude),
            workload_overrides=dict(self._workload_overrides),
            nodes=self._nodes if "nodes" in self._explicit else None,
            duration=(self._duration if "duration" in self._explicit
                      else None),
            churn=self._churn_interval is not None,
            churn_interval=self._churn_interval,
            network=dict(self._network_params),
            options=dict(self._options),
            fault_seed=self._fault_seed,
            fault_start_after=self._fault_start_after,
        )
        return run_campaign(spec, jobs=jobs, out=out, resume=resume,
                            progress=progress)

    def addresses(self) -> list[Address]:
        return make_addresses(self._nodes, start=1)
