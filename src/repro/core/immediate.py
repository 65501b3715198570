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

from typing import Optional, Sequence

from ..mc.global_state import GlobalState, NodeLocal, Step
from ..mc.transition import TransitionSystem
from ..properties import (
    Property,
    PropertyViolation,
    derive_all,
    safety_properties,
)
from ..runtime.address import Address
from ..runtime.events import Event, ResetEvent
from ..runtime.state import NodeState


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
        #: the neighbourhood last checked against and its verdicts, derived
        #: once for all the checks against it (one controller round's).
        self._start: Optional[GlobalState] = None
        self._start_verdicts: tuple = ()

    def check(
        self,
        addr: Address,
        live_state: NodeState,
        live_timers: frozenset[str],
        event: Event,
        *,
        neighborhood: Optional[GlobalState] = None,
    ) -> list[PropertyViolation]:
        """Speculatively execute ``event``; the violations it would newly
        introduce (empty: safe to run).

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
            return []
        if neighborhood is None:
            neighborhood = GlobalState(nodes={})
        if neighborhood is not self._start:
            self._start = neighborhood
            self._start_verdicts = derive_all(self.properties, None,
                                              neighborhood, ())

        # No copy: the transition system runs the handler on its own clone
        # of the one node it executes, and nothing else is written.  Both
        # states differ from the neighbourhood only at ``addr`` and in
        # flight, so each verdict is derived from the one before it.
        changed = (addr,)
        base = neighborhood.after(
            Step(node=addr, local=NodeLocal(live_state, live_timers)))
        before = derive_all(self.properties, self._start_verdicts, base,
                            changed)
        speculative = self.system.apply(base, event)
        new: list[PropertyViolation] = []
        for prop, verdict in zip(self.properties, before):
            after = prop.derive(verdict, speculative, changed)
            if after is verdict:
                continue
            old = {(v.node, v.detail) for v in prop.listed(verdict, base)}
            new.extend(v for v in prop.listed(after, speculative)
                       if (v.node, v.detail) not in old)
        return new
