"""Deterministic fault injection: the nemesis layer.

CrystalBall predicts inconsistencies *before* faults push the deployed
system into them — so the harness needs faults to push with.  This package
supplies them: composable :class:`~repro.faults.base.Fault` types
(partitions, link flaps, crash/restart, clock skew, message
delay/reorder/duplication), the seeded
:class:`~repro.faults.nemesis.Nemesis` scheduler that drives them into a
live :class:`~repro.runtime.simulator.Simulator`, and named presets usable
from the fluent builder (``Experiment(...).faults("partition")``) and the
CLI (``python -m repro run chord --faults partition``).

Faults act through the runtime the protocols actually execute on:
partitions and link flaps cut links in the shared
:class:`~repro.runtime.network.NetworkModel`, crash/restart reuses the
simulator's reset path (fresh state, new incarnation, RST storms), and
message faults transform delivery plans inside the network model itself.
Consequence prediction then runs from the snapshots of the fault-shaped
live states — the checker's own transition relation stays the
over-approximating one (it explores deliveries, losses and resets
regardless of which fault window is currently open).
"""

from .base import Fault, FaultRecord, MessageInterceptor, WindowFault
from .byzantine import (
    EquivocatingNode,
    MessageMutator,
    MessageTamper,
    MutatingFault,
    SpoofSender,
    generic_mutator,
)
from .nemesis import Nemesis
from .presets import (
    PRESETS,
    list_presets,
    make_nemesis,
    register_preset,
    resolve_preset,
)
from .types import (
    ClockSkew,
    CrashRestart,
    LinkFlap,
    MessageDelay,
    MessageDup,
    MessageReorder,
    Partition,
)

__all__ = [
    "Fault",
    "FaultRecord",
    "MessageInterceptor",
    "WindowFault",
    "MessageMutator",
    "MessageTamper",
    "MutatingFault",
    "SpoofSender",
    "EquivocatingNode",
    "generic_mutator",
    "Nemesis",
    "PRESETS",
    "list_presets",
    "make_nemesis",
    "register_preset",
    "resolve_preset",
    "ClockSkew",
    "CrashRestart",
    "LinkFlap",
    "MessageDelay",
    "MessageDup",
    "MessageReorder",
    "Partition",
]
