"""The execution-backend API: one protocol surface, many transports.

The paper's claim is about *deployed* systems: CrystalBall controllers ride
on live nodes, not only on a simulator.  An :class:`ExecutionBackend` is the
contract everything above the runtime programs against — the controller
(:mod:`repro.core.controller`), the live property monitor, the nemesis, the
churn process and the open-loop workload drivers all take "a simulator" that
in fact only needs this surface.  Two implementations ship:

``sim`` (:class:`~repro.runtime.simulator.Simulator`)
    The discrete-event simulator itself, registered under a name.  The
    default everywhere.

``tcp`` (:class:`~repro.backends.tcp.AsyncioTcpBackend`)
    Deployed mode: every service and control message — checkpoint
    requests/responses included — crosses a real TCP socket as a
    length-prefixed compact-bytes frame before its handler runs.  The
    deterministic coordinator keeps seeds reproducible, so the same
    scenario yields the same violations over real sockets.

Both backends honor the shared TCP failure contract of
:mod:`repro.runtime.transport`: stale-incarnation connection errors are
surfaced as upcalls, which is what keeps the RandTree bug reproductions
valid in deployed mode.  The bounded non-blocking send queue Bullet'
depends on is modelled in its protocol state (``BulletState.queue_bytes``),
not by a backend, so it refuses the same diffs on either one.
"""

from __future__ import annotations

import hashlib
from typing import (
    Any,
    Callable,
    Mapping,
    Optional,
    Protocol as TypingProtocol,
    runtime_checkable,
)

from ..runtime.address import Address
from ..runtime.events import Event
from ..runtime.messages import Message
from ..runtime.serialization import freeze
from ..runtime.simulator import NodeHook, SimNode, Simulator


@runtime_checkable
class ExecutionBackend(TypingProtocol):
    """The execution surface controllers, monitors and drivers program to.

    Structural (a :class:`typing.Protocol`): :class:`Simulator` satisfies it
    unchanged, and so does anything else exposing this surface.  The
    attributes below are the complete set the CrystalBall stack touches
    (``tests/backends/test_protocol_surface.py`` holds every ``sim`` /
    ``backend`` parameter above the runtime to it) — a new backend that
    provides them hosts the whole product (controllers, steering,
    properties, faults, churn, workloads, scenario drives) without
    modification.  ``wire_report()`` is the one optional member: a backend
    with a real wire adds its accounting to ``RunReport.outcome``.
    """

    now: float
    nodes: dict[Address, SimNode]
    tick_interval: float
    rng: Any
    obs: Any
    observers: list
    #: nodes changed since the previous observer round (the live monitor
    #: re-checks only these).
    touched: set
    #: the :class:`~repro.runtime.network.NetworkModel` faults reshape.
    network: Any
    events_executed: int

    # -- topology ----------------------------------------------------------
    def add_node(self, addr: Address, *, start: bool = True) -> SimNode: ...
    def crash_node(self, addr: Address) -> None: ...
    def revive_node(self, addr: Address) -> None: ...
    def attach_hook(self, addr: Address, hook: NodeHook) -> None: ...
    def add_observer(
        self, observer: Callable[[Any, SimNode, Event], None]) -> None: ...

    # -- scheduling --------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[[Any], None]) -> None: ...
    def schedule_app(self, time: float, addr: Address, call: str,
                     payload: Optional[Mapping[str, Any]] = None) -> None: ...
    def schedule_reset(self, time: float, addr: Address) -> None: ...
    def inject_app(self, addr: Address, call: str,
                   payload: Optional[Mapping[str, Any]] = None) -> None: ...

    # -- transport ---------------------------------------------------------
    def transmit(self, addr: Address, message: Message) -> None: ...

    # -- execution ---------------------------------------------------------
    def run(self, *, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None: ...
    def node_states(self) -> dict[Address, tuple[Any, frozenset[str]]]: ...
    def inflight_messages(self) -> list[Message]: ...
    def total_service_bytes(self) -> int: ...


#: name -> backend class; the tcp module adds itself when the package
#: imports it.
BACKENDS: dict[str, type] = {}


def register_backend(name: str, cls: type) -> type:
    """Register an execution backend under ``name`` (idempotent)."""
    existing = BACKENDS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"backend {name!r} is already registered")
    BACKENDS[name] = cls
    return cls


register_backend("sim", Simulator)


def backend_names() -> list[str]:
    """Registered backend names, sorted (``["sim", "tcp"]`` out of the box)."""
    return sorted(BACKENDS)


def get_backend(name: str) -> type:
    """Look up a backend class by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names()) or "<none>"
        raise ValueError(
            f"unknown backend {name!r} (registered backends: {known})"
        ) from None


def make_backend(
    name: str,
    protocol_factory: Callable[[], Any],
    network: Any = None,
    *,
    seed: int = 0,
    tick_interval: float = 10.0,
    obs: Any = None,
    options: Optional[Mapping[str, Any]] = None,
) -> Simulator:
    """Build the named backend with per-backend ``options``.

    The common constructor arguments match :class:`Simulator`; ``options``
    carries backend-specific settings (e.g. ``host``/``port_base`` for
    ``tcp``) and is validated by the backend class, so a typo'd option
    fails loudly before the run starts.
    """
    cls = get_backend(name)
    return cls.from_options(
        protocol_factory, network, seed=seed, tick_interval=tick_interval,
        obs=obs, options=options)


def protocol_state_digest(backend: ExecutionBackend) -> str:
    """Canonical digest of every alive node's protocol state.

    The cross-backend equivalence check: a sim run and a tcp run of the
    same seeded scenario must land on identical digests.  Built on
    :func:`repro.runtime.serialization.freeze`, the same canonicalization
    the model checker hashes states with.
    """
    frozen = tuple(
        (addr.frozen(), freeze(state), tuple(sorted(timers)))
        for addr, (state, timers) in sorted(backend.node_states().items())
    )
    return hashlib.sha256(repr(frozen).encode("utf-8")).hexdigest()
