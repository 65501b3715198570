"""Concretized, minimizable attack schedules.

A fault preset is *implicit*: "equivocate every 20 s" only becomes
concrete firings once a run unfolds.  Delta debugging needs the opposite —
an explicit list of one-shot steps where removing one never changes the
others.  :func:`concretize` unrolls presets/instances into one-shot
:class:`~repro.faults.base.Fault` instances at absolute simulated times,
each carrying its own pinned ``rng_key`` (so the equivocating node picked
by step 3 does not depend on whether step 2 still exists).  A step *is*
the fault a seeded re-execution installs:
``Experiment(...).faults(*schedule.steps, seed=0, start_after=0.0)``
(every run deep-copies the instances it is given, so a schedule is never
touched by running it).

Schedules serialize to JSON (``to_dict``/``from_dict``) — they are the
``trace`` section of the attack-report artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Union

from ..faults.base import Fault
from ..faults.presets import STOP_AFTER_FRACTION, expand_faults

__all__ = ["AttackSchedule", "concretize"]

#: Bound on concretized steps per schedule, so a short-period preset over a
#: long run cannot explode the trace artifact.
_MAX_STEPS = 64


@dataclass(frozen=True)
class AttackSchedule:
    """An explicit, replayable fault schedule for one attack attempt.

    Every step is a one-shot fault (``at`` absolute, ``every`` unset) whose
    ``rng_key`` pins its private RNG: the same step replays the same draws
    (liar choice, tampered fields) no matter which other steps survive
    minimization.  ``MutatingFault`` steps read back from JSON carry
    ``mutator=None`` — the live run fills in the system's registered
    mutator hook, exactly as for preset-built faults.
    """

    steps: tuple[Fault, ...]
    #: Attack seed the schedule was concretized with (names the attempt).
    seed: int = 0
    duration: float = 0.0

    def __len__(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AttackSchedule":
        return cls(
            steps=tuple(Fault.from_dict(s) for s in data.get("steps", [])),
            seed=int(data.get("seed", 0)),
            duration=float(data.get("duration", 0.0)),
        )


def concretize(
    faults: Iterable[Union[str, Fault]],
    *,
    duration: float,
    seed: int = 0,
    start_after: float = 0.0,
    stop_after: Union[float, None] = None,
) -> AttackSchedule:
    """Unroll presets/instances into an explicit one-shot schedule.

    Firing times mirror the nemesis: the first firing lands at
    ``start_after + (at or every)``, periodic faults re-fire every
    ``every`` seconds, and nothing fires at or past ``stop_after``
    (default ``0.9 * duration``, the nemesis convention that leaves the
    run a tail to re-converge in).
    """
    if stop_after is None:
        stop_after = duration * STOP_AFTER_FRACTION
    steps: list[Fault] = []
    for fault in expand_faults(faults, duration):
        if fault.name not in Fault.kinds:
            raise ValueError(
                f"fault type {fault.name!r} has no schedule step kind "
                f"(known kinds: {', '.join(sorted(Fault.kinds))})"
            )
        first = fault.at if fault.at is not None else fault.every
        t = start_after + float(first)
        while t < stop_after and len(steps) < _MAX_STEPS:
            steps.append(
                replace(fault, at=t, every=None, rng_key=f"attack/{seed}/{len(steps)}")
            )
            if fault.every is None:
                break
            t += fault.every
    steps.sort(key=lambda step: (step.at, step.name, step.rng_key))
    return AttackSchedule(steps=tuple(steps), seed=seed, duration=duration)
