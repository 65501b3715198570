"""Core property types: the base class, safety properties and combinators.

A *property* is a named, identified check over the distributed system.  Two
kinds exist:

* **Safety properties** (:class:`SafetyProperty`) are predicates over a
  single :class:`~repro.mc.global_state.GlobalState`.  They are evaluated by
  the model checkers (exhaustive search, random walks, consequence
  prediction), by the live property monitor and by the immediate safety
  check.
* **Liveness properties** (:class:`~repro.properties.liveness.LivenessProperty`)
  are temporal: they watch the live execution over simulated time and can
  only be evaluated by the live monitor.  See :mod:`repro.properties.liveness`.

Every property carries a namespaced id (``"randtree.no_self_reference"``),
a :data:`severity <SEVERITIES>` and a set of free-form tags, which is what
makes the property surface selectable (``Experiment.properties("randtree.*")``,
``python -m repro properties``, campaign ``properties=`` axes).

Combinators build safety properties from simpler check functions:

* :func:`node_property` — checked independently at every node, reading
  only that node's local state;
* :class:`SummaryProperty` — a cross-node invariant stated as a per-node
  ``summarize``, a projection of in-flight messages and a ``combine`` over
  the summaries;
* plain :class:`SafetyProperty` — an arbitrary predicate over the whole
  global state.

Every checker (the live monitor, the immediate safety check, the
searches) evaluates a safety property by one rule,
:meth:`SafetyProperty.derive`: its verdict in a state, derived from its
verdict where only some nodes and the in-flight messages differ; the kinds
differ only in what they re-check (see :data:`SCOPES`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..mc.global_state import GlobalState, NodeLocal
from ..runtime.address import Address
from ..runtime.state import NodeState

#: Recognised severity levels, most severe first.
SEVERITIES = ("critical", "error", "warning", "info")

#: Property scopes, i.e. what :meth:`SafetyProperty.derive` re-checks when
#: some nodes changed: ``"node"``, the check at each changed node (it reads
#: only that node's local state and timers); ``"summary"``, each changed
#: node's summary, then ``combine`` only if a summary or an in-flight key
#: moved; ``"global"``, the whole state.
SCOPES = ("node", "summary", "global")


def validate_severity(severity: str) -> str:
    if severity not in SEVERITIES:
        raise ValueError(
            f"unknown severity {severity!r} (one of: {', '.join(SEVERITIES)})"
        )
    return severity


@dataclass(frozen=True)
class PropertyViolation:
    """One violation of one property in one global state."""

    property_name: str
    node: Optional[Address]
    detail: str

    def __str__(self) -> str:
        where = f" at {self.node}" if self.node is not None else ""
        return f"[{self.property_name}]{where}: {self.detail}"


class Property:
    """Base class: identity, severity and tags shared by all property kinds.

    ``name`` is the namespaced id (``"<system>.<property>"`` by
    convention); ``kind`` is ``"safety"`` or ``"liveness"``;
    ``state_checkable`` tells the state-based checkers whether they can
    evaluate the property on a single global state.
    """

    kind = "property"
    #: True when the property is a predicate over one global state.
    state_checkable = False

    def __init__(
        self,
        name: str,
        description: str = "",
        *,
        severity: str = "error",
        tags: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.description = description or name
        self.severity = validate_severity(severity)
        self.tags = frozenset(tags)

    @property
    def namespace(self) -> str:
        """The id prefix before the first dot (usually the system name)."""
        return self.name.split(".", 1)[0] if "." in self.name else ""

    def describe(self) -> dict:
        """Registry-listing summary (``python -m repro properties``)."""
        return {
            "id": self.name,
            "kind": self.kind,
            "severity": self.severity,
            "tags": sorted(self.tags),
            "description": self.description,
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SafetyProperty(Property):
    """A named safety property over global states.

    ``check_fn`` receives the global state and returns an iterable of
    violation detail strings paired with the offending node (or ``None``
    for system-wide violations).  Severity and tags are keyword-only.
    A verdict (:meth:`derive`) is plain data, so a search can pickle it.
    """

    kind = "safety"
    state_checkable = True
    #: Default scope: an arbitrary predicate may read anything.
    scope = "global"

    def __init__(
        self,
        name: str,
        check_fn: Callable[[GlobalState], Iterable[tuple[Optional[Address], str]]],
        description: str = "",
        *,
        severity: str = "error",
        tags: Iterable[str] = (),
    ) -> None:
        super().__init__(name, description, severity=severity, tags=tags)
        self._check_fn = check_fn

    def derive(self, before: Any, state: GlobalState,
               changed: Iterable[Address]) -> Any:
        """This property's verdict in ``state``, from its verdict ``before``
        in a state where only the ``changed`` nodes (added, removed or
        updated) and the in-flight messages differ; ``before`` None derives
        from nothing.  A plain predicate re-checks the whole state."""
        return [PropertyViolation(self.name, node, detail)
                for node, detail in self._check_fn(state)]

    def listed(self, verdict: Any, state: GlobalState) -> list[PropertyViolation]:
        """The violations of ``verdict``, a verdict in ``state``, in
        :func:`check_all` order."""
        return verdict

    def violations(self, state: GlobalState) -> list[PropertyViolation]:
        """All violations of this property in ``state``."""
        return self.listed(self.derive(None, state, ()), state)

    def holds(self, state: GlobalState) -> bool:
        """True when the property is satisfied in ``state``."""
        return not self.violations(state)

    def describe(self) -> dict:
        data = super().describe()
        data["scope"] = self.scope
        return data


class NodeScopedProperty(SafetyProperty):
    """A safety property checked independently at every node.

    Built by :func:`node_property`; ``check_fn`` is the per-node check.  It
    reads nothing but that node's local state and timers, so a verdict
    (``{node: violations}`` for the violating nodes) is re-checked only at
    the nodes that changed.
    """

    scope = "node"

    def violations_at(
        self, state: GlobalState, addr: Address
    ) -> list[PropertyViolation]:
        """Violations of this property at the single node ``addr``."""
        local = state.nodes.get(addr)
        if local is None:
            return []
        return [
            PropertyViolation(self.name, addr, detail)
            for detail in self._check_fn(addr, local.state, local.timers, state)
        ]

    def derive(self, before: Optional[dict], state: GlobalState,
               changed: Iterable[Address]) -> dict:
        if before is None:  # every node, in one pass
            verdict: dict = {}
            for addr, local in state.nodes.items():
                for detail in self._check_fn(addr, local.state, local.timers, state):
                    verdict.setdefault(addr, []).append(
                        PropertyViolation(self.name, addr, detail))
            return verdict
        verdict = before
        for addr in changed:
            found = self.violations_at(state, addr)
            if (found or None) == verdict.get(addr):  # a clean node has no entry
                continue
            if verdict is before:  # copied on the first move only
                verdict = dict(before)
            if found:
                verdict[addr] = found
            else:
                del verdict[addr]
        return verdict

    def listed(self, verdict: dict, state: GlobalState) -> list[PropertyViolation]:
        if not verdict:
            return []
        return [v for addr in state.nodes if addr in verdict for v in verdict[addr]]


def node_property(
    name: str,
    check_fn: Callable[
        [Address, NodeState, frozenset[str], GlobalState], Iterable[str]
    ],
    description: str = "",
    *,
    severity: str = "error",
    tags: Iterable[str] = (),
) -> NodeScopedProperty:
    """Build a property checked independently at every node.

    ``check_fn`` receives the node address, its protocol state, its armed
    timers and the full global state, and yields a violation description
    per problem found at that node.  It must read nothing but that node's
    state and timers; a check across nodes is a :class:`SummaryProperty`
    (or, for a one-off predicate, a plain :class:`SafetyProperty`).
    """
    return NodeScopedProperty(
        name, check_fn, description, severity=severity, tags=tags)


class SummaryProperty(SafetyProperty):
    """A cross-node safety property stated as per-node summaries.

    ``summarize(addr, local)`` reads only that node and returns a value
    sharing no mutable container with the state, or ``None`` for a node
    the property ignores; ``inflight_key(message)`` projects an in-flight
    message to a key, or ``None``; ``combine(summaries, keys)`` gets
    ``{addr: summary}`` in ``state.nodes`` order (``None`` left out) and the
    keys in in-flight order, and yields ``(node, detail)`` pairs.  A verdict
    is ``(summaries, keys, violations)``; ``combine`` must be pure, because
    a verdict is reused while no summary (by ``==``) and no key moved.
    """

    scope = "summary"

    def __init__(
        self,
        name: str,
        summarize: Callable[[Address, NodeLocal], Any],
        combine: Callable[
            [dict[Address, Any], tuple],
            Iterable[tuple[Optional[Address], str]],
        ],
        description: str = "",
        *,
        inflight_key: Optional[Callable[[Any], Any]] = None,
        severity: str = "error",
        tags: Iterable[str] = (),
    ) -> None:
        super().__init__(name, combine, description, severity=severity, tags=tags)
        self.summarize = summarize
        self.inflight_key = inflight_key

    def inflight_keys(self, inflight: Iterable[Any]) -> tuple:
        """The keys of the in-flight messages the property reads, in order."""
        if self.inflight_key is None:
            return ()
        return tuple([key for key in map(self.inflight_key, inflight)
                      if key is not None])

    def derive(self, before: Optional[tuple], state: GlobalState,
               changed: Iterable[Address]) -> tuple:
        nodes, summarize = state.nodes, self.summarize
        if before is None or any((addr in nodes) != (addr in before[0])
                                 for addr in changed):
            # Nothing known, or the node set changed: every node, in order.
            summaries = {addr: summarize(addr, local)
                         for addr, local in nodes.items()}
        else:
            summaries = before[0]
            for addr in changed:
                summary = summarize(addr, nodes[addr])
                if summary != summaries[addr]:
                    if summaries is before[0]:  # copied on the first move only
                        summaries = dict(summaries)
                    summaries[addr] = summary
        keys = self.inflight_keys(state.inflight)
        if before is not None and summaries is before[0] and keys == before[1]:
            return before
        present = {addr: s for addr, s in summaries.items() if s is not None}
        return summaries, keys, [
            PropertyViolation(self.name, node, detail)
            for node, detail in self._check_fn(present, keys)]

    def listed(self, verdict: tuple, state: GlobalState) -> list[PropertyViolation]:
        return verdict[2]


def typed_check(state_type: type) -> Callable:
    """Guard a per-node property check behind a state-type test.

    Mixed deployments (and mid-churn snapshots) can hand a system's
    property a node running a different protocol; every per-node check
    therefore starts with the same ``isinstance`` guard.  Decorating the
    check function with ``@typed_check(MyState)`` hoists that guard: the
    check yields nothing for nodes whose state is not an instance of
    ``state_type`` and otherwise runs unchanged.

        @typed_check(RandTreeState)
        def _no_self_reference(addr, state, timers, gs):
            if addr in state.children:
                yield "node lists itself as a child"
    """

    def decorate(
        check_fn: Callable[
            [Address, NodeState, frozenset[str], GlobalState], Iterable[str]
        ],
    ) -> Callable[[Address, NodeState, frozenset[str], GlobalState], Iterable[str]]:
        @functools.wraps(check_fn)
        def checked(
            addr: Address,
            state: NodeState,
            timers: frozenset[str],
            gs: GlobalState,
        ) -> Iterable[str]:
            if not isinstance(state, state_type):
                return ()
            return check_fn(addr, state, timers, gs)

        return checked

    return decorate


def typed_states(
    state: GlobalState, state_type: type
) -> Iterator[tuple[Address, NodeState]]:
    """Iterate ``(addr, node_state)`` pairs whose state is ``state_type``.

    The whole-global-state analogue of :func:`typed_check`: global checks
    and liveness predicates that scan every node use this instead of
    repeating the ``isinstance`` filter inline.  Iteration follows
    ``state.nodes`` order (insertion order, which is deterministic).
    """
    for addr, local in state.nodes.items():
        if isinstance(local.state, state_type):
            yield addr, local.state


def safety_properties(properties: Sequence[Property]) -> list[SafetyProperty]:
    """The state-checkable subset of ``properties``.

    The model checkers and the immediate safety check evaluate properties
    on single global states; temporal (liveness) properties are silently
    excluded because they are only meaningful to the live monitor.
    """
    return [prop for prop in properties if isinstance(prop, SafetyProperty)]


def check_all(
    properties: Sequence[Property], state: GlobalState
) -> list[PropertyViolation]:
    """All violations of all state-checkable ``properties`` in ``state``."""
    found: list[PropertyViolation] = []
    for prop in properties:
        if isinstance(prop, SafetyProperty):
            found.extend(prop.violations(state))
    return found


def derive_all(properties: Sequence[SafetyProperty], before: Optional[tuple],
               state: GlobalState, changed: Iterable[Address]) -> tuple:
    """Each property's verdict in ``state``, derived from its verdict in
    ``before`` (None: from nothing); see :meth:`SafetyProperty.derive`."""
    before = before or (None,) * len(properties)
    return tuple([p.derive(v, state, changed) for p, v in zip(properties, before)])


def listed_all(properties: Sequence[SafetyProperty], verdicts: tuple,
               state: GlobalState) -> list[PropertyViolation]:
    """The violations of ``verdicts`` in ``state``, in :func:`check_all`
    order."""
    return [violation for prop, verdict in zip(properties, verdicts)
            for violation in prop.listed(verdict, state)]
