"""Fault-injection primitives: the :class:`Fault` contract.

CrystalBall's evaluation exercises the systems under adverse conditions —
network partitions, message delay and reordering, crash-recovery resets
(Sections 5.4.1/5.4.2 run churn and the Figure 13 fault schedule).  A
:class:`Fault` is one such adversity, described declaratively: *when* it
fires (one-shot ``at`` or periodic ``every``), *how long* it lasts
(``duration``, after which :meth:`Fault.heal` undoes it), and *what* it does
(:meth:`Fault.inject`).  The :class:`~repro.faults.nemesis.Nemesis`
scheduler owns the timing and bookkeeping so that a fault schedule is fully
determined by the nemesis seed.

Message-level faults (delay, reorder, duplication) act as
:class:`MessageInterceptor` objects installed on
:class:`~repro.runtime.network.NetworkModel`: the simulator asks the network
model for a *delivery plan* (a list of delivery latencies, empty = dropped)
for every transmitted message, and each installed interceptor may transform
that plan.  Byzantine faults (see :mod:`repro.faults.byzantine`)
additionally use the :meth:`MessageInterceptor.rewrite` hook to alter the
message *content* on the wire before the plan is computed.  A
:class:`WindowFault` is both at once: it installs *itself* on the network
model for its duration.

A one-shot fault is also one step of an attack trace
(:mod:`repro.attack.schedule`): :meth:`Fault.to_dict` and
:meth:`Fault.from_dict` carry it through JSON, by ``name`` in
:attr:`Fault.kinds`.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.simulator import Simulator


@dataclass
class FaultRecord:
    """One fault event that actually happened during a run."""

    time: float
    fault: str
    kind: str  # "inject" | "heal" | "skip"
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": round(self.time, 3),
            "fault": self.fault,
            "kind": self.kind,
            "detail": dict(self.detail),
        }


@dataclass
class Fault:
    """Base class for injectable faults.

    Parameters
    ----------
    at:
        Absolute (nemesis-relative) time of a one-shot injection.
    every:
        Period of a recurring injection; mutually exclusive with ``at``.
    duration:
        How long the fault stays active before :meth:`heal` is called.
        ``None`` means the fault is instantaneous (e.g. a reset) or
        permanent (nothing to undo).
    rng_key:
        Optional explicit seed string for this fault's private RNG.  The
        nemesis normally derives the per-fault RNG from
        ``(seed, index, name)``; a concretized attack step (see
        :mod:`repro.attack`) pins its own key instead, so dropping one
        step during trace minimization never shifts the draws of the
        remaining steps.
    """

    at: Optional[float] = None
    every: Optional[float] = None
    duration: Optional[float] = None
    rng_key: Optional[str] = None

    #: Human-readable fault-type name used in records, breakdowns and traces.
    name = "fault"

    #: Every fault class that declares a ``name``, keyed by it.
    kinds: ClassVar[dict[str, type["Fault"]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in cls.__dict__:
            Fault.kinds[cls.name] = cls

    def __post_init__(self) -> None:
        if (self.at is None) == (self.every is None):
            raise ValueError(
                f"{type(self).__name__} needs exactly one of at= (one-shot) "
                f"or every= (periodic)"
            )
        if self.every is not None and self.every <= 0:
            raise ValueError("every must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")

    # -- trace form -----------------------------------------------------------

    def params(self) -> dict[str, Any]:
        """Constructor arguments that configure the fault beyond timing/RNG."""
        timing = {f.name for f in dataclasses.fields(Fault)}
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.init and f.name not in timing
        }

    def to_dict(self) -> dict[str, Any]:
        """One step of an attack trace (a one-shot fault at an absolute time)."""
        return {
            "kind": self.name,
            "at": self.at,
            "duration": self.duration,
            "params": self.params(),
            "rng_key": self.rng_key,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Fault":
        cls = Fault.kinds.get(data["kind"])
        if cls is None:
            raise ValueError(
                f"unknown schedule step kind {data['kind']!r} "
                f"(known kinds: {', '.join(sorted(Fault.kinds))})"
            )
        # JSON writes tuples as lists; fault fields expect tuples.
        params = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.get("params", {}).items()
        }
        return cls(
            at=float(data["at"]),
            duration=data.get("duration"),
            rng_key=data.get("rng_key") or None,
            **params,
        )

    # -- target selection helpers ---------------------------------------------

    @staticmethod
    def alive_addresses(sim: Simulator, *, spare: int = 0) -> list[Address]:
        """Alive node addresses, optionally sparing the first ``spare``
        (bootstrap / source) nodes from being targeted."""
        alive = sorted(addr for addr, node in sim.nodes.items() if node.alive)
        protected = set(sorted(sim.nodes)[:spare])
        return [addr for addr in alive if addr not in protected]

    # -- lifecycle ------------------------------------------------------------

    def inject(self, sim: Simulator, rng: random.Random) -> Optional[dict]:
        """Apply the fault; return a detail dict for the record, or ``None``
        when no eligible target exists (recorded as a skip)."""
        raise NotImplementedError

    def heal(self, sim: Simulator) -> Optional[dict]:
        """Undo the fault (called ``duration`` after a successful inject)."""
        return None

    def cleanup(self, sim: Simulator) -> None:
        """Undo any still-active effect when the run ends.

        Heals scheduled past the simulation horizon never execute, so a
        window still open at the end would otherwise leave residue
        (interceptors, cut links) on a possibly caller-supplied
        :class:`~repro.runtime.network.NetworkModel`.  The default drains
        :meth:`heal` until it reports nothing left to undo.
        """
        for _ in range(1024):  # every heal undoes one injection; bounded
            if self.heal(sim) is None:
                return


class MessageInterceptor:
    """Transforms the delivery plan — and optionally the content — of
    transmitted messages.

    ``transform`` receives the message, the current plan (a list of delivery
    latencies in seconds; one entry per copy that will be delivered, empty
    meaning the message is dropped) and the simulator RNG, and returns the
    new plan.  Interceptors compose: the network model threads the plan
    through every installed interceptor in order.

    ``rewrite`` may return a *replacement* message that is delivered instead
    of the original — the hook byzantine faults tamper, spoof and
    equivocate through.  The default is the identity and consumes no RNG
    state, so benign fault schedules stay bit-identical to the pre-byzantine
    runtime.
    """

    def transform(
        self, message: Message, plan: list[float], rng: random.Random
    ) -> list[float]:
        raise NotImplementedError

    def rewrite(self, message: Message, rng: random.Random) -> Message:
        """Return the message to deliver in place of ``message``.

        Called once per transmitted message (after the loss draw, before
        the delivery plan); byzantine interceptors override it.  Must not
        consume ``rng`` unless it actually alters behaviour, so that
        fault-free and benign-fault runs keep their historical schedules.
        """
        return message


@dataclass
class WindowFault(Fault, MessageInterceptor):
    """A fault that is its own interceptor while its window is open.

    :meth:`inject` installs the fault on the network model and :meth:`heal`
    removes it; subclasses override :meth:`transform` or :meth:`rewrite`
    (reading their own fields) and, where a window needs the membership, a
    liar or a private RNG, :meth:`open`.
    """

    #: Messages touched by the current (or most recent) window.
    affected: int = field(default=0, init=False, repr=False)
    _active: bool = field(default=False, init=False, repr=False)

    def open(self, sim: Simulator, rng: random.Random) -> bool:
        """Prepare one window; ``False`` when no eligible target exists."""
        return True

    def describe(self) -> dict:
        return {}

    def transform(
        self, message: Message, plan: list[float], rng: random.Random
    ) -> list[float]:
        return plan

    def inject(self, sim: Simulator, rng: random.Random) -> Optional[dict]:
        if self._active:
            return None  # previous window still open
        if not self.open(sim, rng):
            return None
        self._active = True
        self.affected = 0
        sim.network.interceptors.append(self)
        return self.describe()

    def heal(self, sim: Simulator) -> Optional[dict]:
        if not self._active:
            return None
        self._active = False
        # By identity: a field-equal fault is a different installed window.
        sim.network.interceptors[:] = [
            other for other in sim.network.interceptors if other is not self
        ]
        return {"messages_affected": self.affected}
