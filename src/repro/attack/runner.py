"""The attack runner: hunt, minimize, replay, report.

:func:`find_attack` is the engine behind ``python -m repro attack`` and
the campaign ``modes=attack`` axis:

1. **Hunt** — concretize the requested fault presets into explicit
   schedules under increasing attack seeds and run each until one seeded
   live run violates the named property (or the attempt budget runs out).
2. **Minimize** — greedy delta debugging
   (:func:`~repro.mc.falsify.greedy_minimize`) over the violating
   schedule: drop steps, shorten fault windows, narrow tampered message
   types; every proposal is confirmed by a full seeded re-execution.
3. **Replay** — re-execute the minimized schedule once more and check it
   reproduces the *same* violation (simulated time + per-violation state
   digest) and the same final whole-system protocol digest.
4. **Report** — package everything into an
   :class:`~repro.attack.report.AttackReport` artifact.

Every run is a plain :class:`~repro.api.experiment.Experiment` with the
schedule's steps (one-shot faults at absolute times) installed at
``start_after=0.0`` — so a reported trace replays through the public API
with no attack machinery involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence, Union

from ..api.experiment import Experiment
from ..api.registry import get_system
from ..api.report import RunReport
from ..backends.base import protocol_state_digest
from ..faults.base import Fault
from ..faults.byzantine import MutatingFault
from ..mc.falsify import greedy_minimize
from ..obs import MetricsRegistry
from ..properties import select_properties
from ..properties.violations import ViolationRecord
from .report import AttackReport
from .schedule import AttackSchedule, concretize

__all__ = ["AttackConfig", "AttackEvidence", "AttackResult", "find_attack"]

#: Fault windows are never shrunk below this (seconds); below it the
#: window covers no deliveries and the re-execution is wasted.
_MIN_WINDOW = 1.0
#: Re-executions the minimizer may spend on one schedule.
_MAX_MINIMIZE_EXECUTIONS = 64


@dataclass
class AttackConfig:
    """Everything one attack hunt needs (CLI flags map 1:1 onto fields)."""

    system: str
    property_id: str
    faults: Sequence[Union[str, Fault]] = ("equivocation",)
    nodes: Optional[int] = None
    duration: Optional[float] = None
    #: Run seed of every seeded execution (the simulator's stream).
    seed: int = 0
    #: Seeded schedules tried before giving up.
    attempts: int = 8
    mode: str = "off"
    minimize: bool = True
    #: System options forwarded to the experiment (e.g. paxos ``bug``).
    options: Mapping[str, Any] = field(default_factory=dict)
    #: Optional JSONL trace path for the final replay run (repro.obs).
    trace: Optional[str] = None


@dataclass
class AttackEvidence:
    """Proof that one schedule violates the target property."""

    record: ViolationRecord
    count: int
    final_digest: str
    run_report: RunReport


@dataclass
class AttackResult:
    """What :func:`find_attack` hands back to CLI/campaign/tests."""

    found: bool
    report: AttackReport
    schedule: Optional[AttackSchedule] = None
    evidence: Optional[AttackEvidence] = None
    run_report: Optional[RunReport] = None


def _invocation(
    config: AttackConfig, nodes: int, duration: float
) -> str:
    parts = ["python -m repro attack", config.system]
    parts += ["--property", config.property_id]
    for item in config.faults:
        parts += ["--faults", item if isinstance(item, str) else repr(item)]
    parts += ["--nodes", str(nodes)]
    parts += ["--duration", f"{duration:g}"]
    parts += ["--seed", str(config.seed)]
    parts += ["--attempts", str(config.attempts)]
    if config.mode != "off":
        parts += ["--mode", config.mode]
    if not config.minimize:
        parts.append("--no-minimize")
    return " ".join(parts)


def _with_step(schedule: AttackSchedule, index: int, *step: Fault) -> AttackSchedule:
    """The schedule with step ``index`` replaced by ``step`` (or dropped)."""
    steps = schedule.steps[:index] + step + schedule.steps[index + 1 :]
    return replace(schedule, steps=steps)


class _AttackRunner:
    def __init__(self, config: AttackConfig) -> None:
        self.config = config
        spec = get_system(config.system)
        self.nodes = config.nodes if config.nodes is not None else spec.default_nodes
        self.duration = (
            config.duration if config.duration is not None else spec.default_duration
        )
        self.start_after = min(self.nodes * spec.join_spacing, self.duration * 0.1)
        self.metrics = MetricsRegistry()
        #: Most recent seeded run, violating or not — so a failed hunt
        #: still hands the campaign a real RunReport to aggregate.
        self.last_run_report: Optional[RunReport] = None

    # -- execution -------------------------------------------------------------

    def execute(
        self, schedule: AttackSchedule, trace: Optional[str] = None
    ) -> Optional[AttackEvidence]:
        """One seeded run of the schedule; evidence iff the property broke."""
        config = self.config
        self.metrics.inc("attack.executions")
        experiment = (
            Experiment(config.system)
            .mode(config.mode)
            .seed(config.seed)
            .nodes(self.nodes)
            .duration(self.duration)
            .properties(config.property_id)
            .faults(*schedule.steps, seed=0, start_after=0.0)
        )
        if config.options:
            experiment.options(**dict(config.options))
        if trace is not None:
            experiment.trace(trace)
        report = experiment.run()
        self.last_run_report = report
        records = [
            record
            for record in report.live_monitor.records
            if record.property_id == config.property_id
        ]
        if not records:
            return None
        self.metrics.inc("attack.violating_runs")
        return AttackEvidence(
            record=records[0],
            count=len(records),
            final_digest=protocol_state_digest(report.simulator),
            run_report=report,
        )

    # -- minimization reducers -------------------------------------------------

    def _drop_step(self, schedule: AttackSchedule):
        if len(schedule.steps) <= 1:
            return
        for index in range(len(schedule.steps)):
            yield _with_step(schedule, index)

    def _shrink_window(self, schedule: AttackSchedule):
        for index, step in enumerate(schedule.steps):
            if step.duration is None or step.duration / 2 < _MIN_WINDOW:
                continue
            yield _with_step(schedule, index, replace(step, duration=step.duration / 2))

    def _narrow_mtypes(self, schedule: AttackSchedule):
        """Drop tampered message types one at a time (the "drop message
        perturbations" axis): a surviving narrowing proves the attack
        never needed to touch the removed type."""
        for index, step in enumerate(schedule.steps):
            if not isinstance(step, MutatingFault):
                continue
            if step.mtypes and len(step.mtypes) > 1:
                for dropped in step.mtypes:
                    narrowed = tuple(m for m in step.mtypes if m != dropped)
                    yield _with_step(schedule, index, replace(step, mtypes=narrowed))

    def reducers(self):
        return [
            ("drop-step", self._drop_step),
            ("narrow-mtypes", self._narrow_mtypes),
            ("shrink-window", self._shrink_window),
        ]

    # -- the full pipeline -----------------------------------------------------

    def run(self) -> AttackResult:
        config = self.config
        invocation = _invocation(config, self.nodes, self.duration)

        # Fail fast on unknown ids — same validation the CLI/campaign use.
        select_properties(config.property_id)
        evidence: Optional[AttackEvidence] = None
        attempts = 0
        while evidence is None and attempts < config.attempts:
            original = concretize(
                config.faults,
                duration=self.duration,
                seed=attempts,
                start_after=self.start_after,
            )
            attempts += 1
            evidence = self.execute(original)
        self.metrics.inc("attack.attempts", attempts)

        if evidence is None:
            report = AttackReport(
                system=config.system,
                property_id=config.property_id,
                found=False,
                mode=config.mode,
                seed=config.seed,
                nodes=self.nodes,
                duration=self.duration,
                attempts=attempts,
                executions=self._executions(),
                invocation=invocation,
                metrics=self.metrics.snapshot(),
            )
            return AttackResult(
                found=False, report=report, run_report=self.last_run_report
            )

        reductions: list[str] = []
        minimized = original
        if config.minimize:
            shrunk = greedy_minimize(
                original,
                evidence,
                self.reducers(),
                self.execute,
                max_executions=_MAX_MINIMIZE_EXECUTIONS,
            )
            minimized = shrunk.candidate
            evidence = shrunk.evidence
            reductions = shrunk.reductions
            self.metrics.inc("attack.reductions_accepted", len(reductions))

        # Determinism check: the minimized schedule must replay to the
        # same violation (time + digest) and the same final system digest.
        replay_evidence = self.execute(minimized, trace=config.trace)
        replay = {
            "verified": (
                replay_evidence is not None
                and replay_evidence.record.sim_time == evidence.record.sim_time
                and replay_evidence.record.state_digest
                == evidence.record.state_digest
                and replay_evidence.final_digest == evidence.final_digest
            ),
            "sim_time": (
                replay_evidence.record.sim_time if replay_evidence else None
            ),
            "state_digest": (
                replay_evidence.record.state_digest if replay_evidence else None
            ),
            "final_state_digest": (
                replay_evidence.final_digest if replay_evidence else None
            ),
        }

        report = AttackReport(
            system=config.system,
            property_id=config.property_id,
            found=True,
            mode=config.mode,
            seed=config.seed,
            attack_seed=original.seed,
            nodes=self.nodes,
            duration=self.duration,
            attempts=attempts,
            executions=self._executions(),
            invocation=invocation,
            original_schedule=original,
            minimized_schedule=minimized,
            reductions=reductions,
            violation=evidence.record.to_dict(),
            violation_count=evidence.count,
            final_state_digest=evidence.final_digest,
            replay=replay,
            metrics=self.metrics.snapshot(),
        )
        return AttackResult(
            found=True,
            report=report,
            schedule=minimized,
            evidence=evidence,
            run_report=evidence.run_report,
        )

    def _executions(self) -> int:
        return self.metrics.counter("attack.executions").value


def find_attack(config: AttackConfig) -> AttackResult:
    """Run the full hunt → minimize → replay → report pipeline."""
    return _AttackRunner(config).run()
