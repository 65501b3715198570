"""Adversarial testing: byzantine attacks as first-class artifacts.

The rest of the harness asks "does the system stay consistent under
*benign* faults?".  This package asks the adversarial question: *can a
lying node push a named safety property to violation* — and if so, what
is the smallest, replayable schedule that does it?

Three pieces, built on :mod:`repro.faults.byzantine` and
:mod:`repro.mc.falsify`:

:mod:`repro.attack.schedule`
    Concretizes fault presets into an explicit
    :class:`~repro.attack.schedule.AttackSchedule` of one-shot
    :class:`~repro.faults.base.Fault` steps with pinned per-step RNG keys,
    so dropping one step never shifts the others' draws — the property
    delta debugging needs.  A step is the fault itself: a trace replays
    through ``Experiment.faults(*schedule.steps, ...)``.

:mod:`repro.attack.runner`
    :func:`~repro.attack.runner.find_attack`: seeded counterexample hunt
    against one registered property, greedy trace minimization, and a
    deterministic replay check (same violation, same state digest).

:mod:`repro.attack.report`
    The :class:`~repro.attack.report.AttackReport` artifact — trace JSON
    plus rendered markdown, in the shape of a Tamarin falsified-lemma
    report.

Entry points: ``python -m repro attack <system> --property <id>`` and the
campaign ``modes=attack`` axis.
"""

from .report import AttackReport
from .runner import AttackConfig, AttackEvidence, AttackResult, find_attack
from .schedule import AttackSchedule, concretize

__all__ = [
    "AttackConfig",
    "AttackEvidence",
    "AttackReport",
    "AttackResult",
    "AttackSchedule",
    "concretize",
    "find_attack",
]
