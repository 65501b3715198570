"""Named fault presets: reusable nemesis recipes.

A preset is a factory ``(duration) -> list[Fault]`` whose periods scale
with the experiment duration, so both a 30-second CI smoke run and a
ten-minute nightly soak inject a comparable *number* of faults.  Presets
are what ``python -m repro run <system> --faults <preset>`` and
``Experiment(...).faults("partition")`` name; :func:`make_nemesis` expands
any mix of preset names and explicit :class:`~repro.faults.base.Fault`
instances into one seeded :class:`~repro.faults.nemesis.Nemesis`.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Union

from .base import Fault
from .byzantine import EquivocatingNode, MessageTamper, SpoofSender
from .nemesis import Nemesis
from .types import (
    ClockSkew,
    CrashRestart,
    LinkFlap,
    MessageDelay,
    MessageDup,
    MessageReorder,
    Partition,
)

PresetFactory = Callable[[float], list[Fault]]

PRESETS: dict[str, PresetFactory] = {}

#: Share of a run's duration after which the nemesis stops injecting.
STOP_AFTER_FRACTION = 0.9


def register_preset(name: str, factory: PresetFactory) -> PresetFactory:
    """Add a named preset (external code can extend the table)."""
    PRESETS[name] = factory
    return factory


def list_presets() -> list[str]:
    return sorted(PRESETS)


def _preset(name: str):
    def decorate(factory: PresetFactory) -> PresetFactory:
        return register_preset(name, factory)

    return decorate


@_preset("partition")
def _partition(duration: float) -> list[Fault]:
    """Recurring half/half split that heals before the next one."""
    return [Partition(every=duration / 4, duration=duration / 8)]


@_preset("partition-churn")
def _partition_churn(duration: float) -> list[Fault]:
    """Partitions overlapping with crash/restart churn — the compound
    adversary behind the Chord ring-consistency scenarios."""
    return [
        Partition(every=duration / 3, duration=duration / 10),
        CrashRestart(every=duration / 4, duration=duration / 12),
    ]


@_preset("delay")
def _delay(duration: float) -> list[Fault]:
    """Windows of heavy added latency (asynchrony spikes)."""
    return [
        MessageDelay(
            every=duration / 4, duration=duration / 8, min_extra=0.2, max_extra=1.0
        )
    ]


@_preset("reorder")
def _reorder(duration: float) -> list[Fault]:
    return [MessageReorder(every=duration / 4, duration=duration / 8)]


@_preset("duplicate")
def _duplicate(duration: float) -> list[Fault]:
    return [MessageDup(every=duration / 4, duration=duration / 8)]


@_preset("crash")
def _crash(duration: float) -> list[Fault]:
    """Crash-recovery resets: a random non-bootstrap node fail-stops and
    comes back with fresh state."""
    return [CrashRestart(every=duration / 4, duration=duration / 10)]


@_preset("clock-skew")
def _clock_skew(duration: float) -> list[Fault]:
    return [ClockSkew(every=duration / 4)]


@_preset("link-flap")
def _link_flap(duration: float) -> list[Fault]:
    """One flaky link cut and restored many times over the run."""
    return [LinkFlap(every=duration / 10, duration=duration / 20)]


@_preset("chaos")
def _chaos(duration: float) -> list[Fault]:
    """Everything at once, staggered so the adversaries overlap."""
    return [
        Partition(every=duration / 3, duration=duration / 9),
        CrashRestart(every=duration / 4, duration=duration / 12),
        MessageDelay(every=duration / 5, duration=duration / 10),
        MessageDup(every=duration / 6, duration=duration / 12),
        ClockSkew(every=duration / 4),
    ]


@_preset("byzantine")
def _byzantine(duration: float) -> list[Fault]:
    """Lying adversary: tampered payloads plus forged sender addresses,
    staggered so the windows overlap part of the time."""
    return [
        MessageTamper(every=duration / 4, duration=duration / 8),
        SpoofSender(every=duration / 3, duration=duration / 8),
    ]


@_preset("equivocation")
def _equivocation(duration: float) -> list[Fault]:
    """One node tells conflicting stories to different peers — the
    byzantine behaviour behind the Paxos agreement attack."""
    return [EquivocatingNode(every=duration / 3, duration=duration / 4)]


def resolve_preset(name: str, duration: float) -> list[Fault]:
    """Expand one preset name; raises with the known names on a typo."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(list_presets())
        raise ValueError(
            f"unknown fault preset {name!r} (known presets: {known})"
        ) from None
    return factory(duration)


def expand_faults(items: Iterable[Union[str, Fault]], duration: float) -> list[Fault]:
    """Preset names become their faults; instances are deep-copied.

    Faults carry runtime state (active cuts, crashed target, open window),
    so a caller-held instance must not leak one run's state into the next
    — rerunning the same Experiment must reproduce the same schedule.
    """
    expanded: list[Fault] = []
    for item in items:
        if isinstance(item, Fault):
            expanded.append(copy.deepcopy(item))
        else:
            expanded.extend(resolve_preset(item, duration))
    return expanded


def make_nemesis(
    faults: Iterable[Union[str, Fault]],
    *,
    duration: float,
    seed: int = 0,
    start_after: float = 0.0,
) -> Nemesis:
    """Build a seeded nemesis from preset names and/or fault instances.

    Injections stop at ``STOP_AFTER_FRACTION * duration`` (like the churn
    process) so the run's tail shows whether the system re-converges.
    """
    return Nemesis(
        faults=expand_faults(faults, duration),
        seed=seed,
        start_after=start_after,
        stop_after=duration * STOP_AFTER_FRACTION,
    )
