"""Immediate safety check (Sections 3.3 and 4).

The asynchronous model checker cannot always predict an inconsistency in
time (it sees only a neighbourhood subset and runs behind the live system).
The immediate safety check closes that gap for the current handler: it
speculatively executes the handler on a copy of the node's state (the paper
uses a forked address space; the transition system clones the state
object), evaluates the safety properties on the resulting state, and blocks
the real execution when the result is inconsistent.

To avoid blocking on pre-existing violations elsewhere in the (possibly
stale) snapshot, only *newly introduced* violations cause the event to be
blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..mc.global_state import GlobalState
from ..mc.transition import TransitionSystem
from ..properties import (
    NodeScopedProperty,
    Property,
    PropertyViolation,
    safety_properties,
)
from ..runtime.address import Address
from ..runtime.events import Event, ResetEvent
from ..runtime.state import NodeState


@dataclass
class ImmediateCheckOutcome:
    """Result of one speculative handler execution."""

    allowed: bool
    new_violations: list[PropertyViolation] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.allowed


class ImmediateSafetyCheck:
    """Speculative per-handler consistency check.

    Only the state-checkable (safety) subset of ``properties`` is
    evaluated; temporal liveness properties are meaningless for a
    single speculative state and are dropped on construction.
    """

    def __init__(self, system: TransitionSystem,
                 properties: Sequence[Property]) -> None:
        self.system = system
        self.properties = safety_properties(properties)

    def _relevant_violations(self, state: GlobalState,
                             dirty: Address) -> list[PropertyViolation]:
        """Violations whose verdict can depend on the handler at ``dirty``.

        Speculatively executing an event at one node changes only that
        node's local state (plus in-flight messages), so node-scoped
        properties are checked at the dirty node alone; cross-node ones
        (``combine`` over every node's summary) and plain predicates are
        checked over the whole neighbourhood.  Restricting *both* the
        before- and after-sets to the same subset keeps the
        newly-introduced-violation subtraction exact while skipping
        re-checks whose inputs cannot have changed.
        """
        found: list[PropertyViolation] = []
        for prop in self.properties:
            if isinstance(prop, NodeScopedProperty):
                found.extend(prop.violations_at(state, dirty))
            else:
                found.extend(prop.violations(state))
        return found

    def check(
        self,
        addr: Address,
        live_state: NodeState,
        live_timers: frozenset[str],
        event: Event,
        *,
        neighborhood: Optional[GlobalState] = None,
    ) -> ImmediateCheckOutcome:
        """Speculatively execute ``event`` and report whether it is safe.

        Parameters
        ----------
        addr, live_state, live_timers:
            The node about to execute the handler and its current state.
        event:
            The handler invocation being vetted.
        neighborhood:
            The node's most recent neighbourhood snapshot, used so that
            cross-node properties (e.g. "children and siblings disjoint"
            involves only local state, but "root is not a child" involves
            two nodes) can be evaluated.  When absent, the check uses a
            one-node view.
        """
        if isinstance(event, ResetEvent):
            return ImmediateCheckOutcome(allowed=True)

        # No copy: the transition system runs the handler on its own clone
        # of the one node it executes, and nothing else is written.
        if neighborhood is None:
            neighborhood = GlobalState(nodes={})
        base = neighborhood.successor(addr, live_state, live_timers)
        before = {(v.property_name, v.node, v.detail)
                  for v in self._relevant_violations(base, addr)}

        speculative = self.system.apply(base, event)
        after = self._relevant_violations(speculative, addr)
        new = [v for v in after
               if (v.property_name, v.node, v.detail) not in before]

        if new:
            return ImmediateCheckOutcome(allowed=False, new_violations=new)
        return ImmediateCheckOutcome(allowed=True)
