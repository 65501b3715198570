"""Consequence prediction (Figure 8) — the paper's key algorithm.

Consequence prediction is a breadth-first search over global states, like
the exhaustive baseline of Figure 5, with one crucial difference: internal
actions (timers, application calls, resets — the ``HA`` handlers) of a node
are explored *only when the node's local state has not been seen before* in
this search (the ``localExplored`` test, Figure 8 line 17).  Message
handlers are always explored for matching in-flight messages.

The effect is that the search follows causally related chains of events —
an action that changes a node's state enables that node's local actions to
be explored once in the new state — while pruning the interleavings of
independent local actions that make exhaustive search intractable at
runtime.  Bugs it reports are real with respect to the explored model
(unlike over-approximating analyses) because every reported path is an
actual sequence of handler executions.

The two searches are one loop with two successor rules, so the function is
defined beside that loop, in :mod:`repro.mc.search`.
"""

from ..mc.search import EventFilterFn, consequence_prediction

__all__ = ["EventFilterFn", "consequence_prediction"]
