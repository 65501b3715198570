"""System registry: the plugin surface behind the unified experiment API.

A :class:`SystemSpec` describes everything the harness needs to run a
system-under-test — how to build its protocol for a set of addresses, which
safety properties to check, what the model checker may explore, and the
scripted scenarios the paper's figures are built from.  The six bundled
systems (RandTree, Chord, Paxos, Bullet', the CRDT replica set and the
quorum KV store) register themselves from their ``spec`` modules; external
code can add further systems with :func:`register_system`::

    from repro.api import Experiment, get_system, list_systems

    for spec in list_systems():
        print(spec.name, "-", spec.summary)
    report = Experiment("randtree").nodes(8).crystalball("debug").run()
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..mc.search import SearchBudget
from ..mc.transition import TransitionConfig
from ..properties import Property
from ..runtime.address import Address
from ..runtime.protocol import Protocol
from ..workload import WorkloadSpec

#: ``protocol_factory(addresses, options) -> per-node factory`` — given the
#: experiment's member addresses and system-specific options, return the
#: zero-argument factory the simulator calls for every node.
ProtocolFactoryBuilder = Callable[
    [Sequence[Address], Mapping[str, Any]], Callable[[], Protocol]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario of a registered system: data, in one of two forms.

    A *search* scenario sets ``build`` and the ``max_states`` /
    ``max_depth`` / ``resets`` defaults: ``build(fixed=...)`` returns the
    scripted start state — ``(protocol, snapshot)`` or an object carrying
    ``protocol`` and ``global_state()`` — and
    :func:`~repro.api.experiment.run_search_scenario` runs consequence
    prediction from it.  An offline search honours the builder's budget
    and nothing else.

    A *live* scenario is a builder preset: ``faults`` (preset names or
    instances) plus whatever ``faults_factory(duration, addresses)`` adds
    for faults that target specific members, with ``nodes``, ``duration``,
    ``options``, ``network`` (the ``rtt`` / ``jitter`` / ``loss`` /
    ``rst_loss`` scalars of ``Experiment.network``), ``tick_interval`` and
    the ``max_states`` / ``max_depth`` of the prediction budget as
    defaults.  ``Experiment.run()`` folds them under the builder's
    explicit settings — churn off unless asked for, so the named faults
    are the only adversary — and takes the ordinary live path, so every
    builder setting applies.  The keys of ``options`` are also the option
    names the scenario accepts on top of the system's.

    Two hooks let a live scenario script more than faults.
    ``schedule(backend, addresses, options, duration)`` takes the place of
    the system's ``schedule`` hook: it arms every step of a staged
    deployment at an absolute time (Paxos Figure 13 partitions, proposes,
    heals and proposes again) before the one run to ``duration``, and
    raises when the run's nodes or duration cannot hold its script.
    ``outcome(report)`` returns the finished run's ``RunReport.outcome``
    — the system's ``collect`` result is already on ``report`` — so a
    scenario can add its own verdict keys.
    """

    name: str
    description: str
    build: Optional[Callable[..., Any]] = None
    max_states: Optional[int] = None
    max_depth: Optional[int] = None
    resets: bool = True
    faults: Sequence[Any] = ()
    faults_factory: Optional[
        Callable[[float, Sequence[Address]], Sequence[Any]]] = None
    nodes: Optional[int] = None
    duration: Optional[float] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    network: Mapping[str, float] = field(default_factory=dict)
    tick_interval: Optional[float] = None
    schedule: Optional[Callable[..., None]] = None
    outcome: Optional[Callable[..., dict]] = None

    @property
    def kind(self) -> str:
        """``"search"`` or ``"live"``, from the fields set."""
        return "search" if self.build is not None else "live"


@dataclass(frozen=True)
class SystemSpec:
    """Declarative description of one system-under-test."""

    name: str
    summary: str
    protocol_factory: ProtocolFactoryBuilder
    #: Default property set checked by live runs of this system, in check
    #: order (order is load-bearing: searches report the first violation
    #: found, and steering decisions follow from it).
    properties: tuple[Property, ...]
    #: Option names a live run of this system accepts (a scenario may
    #: declare more); anything else is rejected before the run starts, so
    #: a typo'd option fails loudly instead of being silently dropped.
    options: tuple[str, ...] = ()
    #: Builds the (frozen) transition config; ``benchmarks/e2e`` calls it.
    transition_factory: Callable[[], TransitionConfig] = TransitionConfig
    scenarios: Mapping[str, ScenarioSpec] = field(default_factory=dict)
    #: Named open-loop workloads of this system (see :mod:`repro.workload`),
    #: registered the way scenarios are and selected with
    #: ``Experiment.workload(...)`` / ``run --workload`` / the campaign
    #: ``workloads=`` axis.
    workloads: Mapping[str, "WorkloadSpec"] = field(default_factory=dict)
    default_nodes: int = 6
    default_duration: float = 300.0
    tick_interval: float = 10.0
    #: Application call used for staggered joins (None = the protocol starts
    #: by itself, e.g. a push-based source).
    join_call: Optional[str] = "join"
    join_spacing: float = 5.0
    default_churn_interval: Optional[float] = 60.0
    #: Default consequence-prediction budget for live runs of this system.
    search_budget: Optional[SearchBudget] = None
    #: Custom initial scheduling (e.g. Paxos proposals); receives
    #: ``(simulator, addresses, options, duration)`` and replaces the join
    #: schedule.
    schedule: Optional[Callable[..., None]] = None
    #: System-specific outcome extraction: ``collect(simulator) -> dict``
    #: merged into ``RunReport.outcome`` (e.g. chosen values, completions).
    collect: Optional[Callable[..., dict]] = None
    #: Protocol-aware byzantine payload mutator
    #: ``(message, rng, variant) -> Message | None`` used by the tampering
    #: and equivocation faults (see :mod:`repro.faults.byzantine`); None
    #: falls back to the generic integer perturbation.
    message_mutator: Optional[Callable[..., Any]] = None

    def scenario(self, name: str) -> ScenarioSpec:
        try:
            return self.scenarios[name]
        except KeyError:
            known = ", ".join(sorted(self.scenarios)) or "<none>"
            raise KeyError(
                f"system {self.name!r} has no scenario {name!r} "
                f"(known scenarios: {known})") from None

    def workload(self, name: str) -> "WorkloadSpec":
        try:
            return self.workloads[name]
        except KeyError:
            known = ", ".join(sorted(self.workloads)) or "<none>"
            raise KeyError(
                f"system {self.name!r} has no workload {name!r} "
                f"(known workloads: {known})") from None


_REGISTRY: dict[str, SystemSpec] = {}

#: Spec modules of the bundled systems; importing one registers its system.
_BUILTIN_SPEC_MODULES = (
    "repro.systems.randtree.spec",
    "repro.systems.chord.spec",
    "repro.systems.paxos.spec",
    "repro.systems.bulletprime.spec",
    "repro.systems.crdtset.spec",
    "repro.systems.kvstore.spec",
)
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_SPEC_MODULES:
        importlib.import_module(module)


def register_system(spec: SystemSpec, *, replace: bool = False) -> SystemSpec:
    """Add ``spec`` to the registry (idempotent for identical re-imports)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec and not replace:
        raise ValueError(f"system {spec.name!r} is already registered; "
                         "pass replace=True to override")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_system(name: str) -> None:
    """Remove a registered system (no-op when absent)."""
    _REGISTRY.pop(name, None)


def get_system(name: str) -> SystemSpec:
    """Look up a registered system by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(spec.name for spec in list_systems()) or "<none>"
        raise KeyError(
            f"unknown system {name!r} (registered systems: {known})") from None


def list_systems() -> list[SystemSpec]:
    """All registered systems, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
