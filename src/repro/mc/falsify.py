"""Trace minimization for falsification-driven counterexample search.

Exhaustive model checking (the rest of :mod:`repro.mc`) asks "does any
reachable state violate a property?".  Falsification flips the workflow:
given one *named* property, hunt for a single concrete execution that
violates it — an *attack* (the hunt is :mod:`repro.attack.runner`'s) — and
then shrink the violating schedule with greedy delta debugging until every
remaining element is load-bearing.

The minimizer is deliberately generic: a *candidate* is any schedule-like
value, *execute* runs one candidate end to end and returns evidence of a
violation (or ``None``), and *reducers* propose smaller candidates.  The
:mod:`repro.attack` package instantiates them with concretized fault
schedules and seeded live runs; tests instantiate them with toy functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

#: ``execute(candidate) -> evidence | None`` — run one candidate; truthy
#: evidence means the target property was violated.
Executor = Callable[[Any], Optional[Any]]

#: ``reducer(candidate) -> iterable of strictly smaller candidates``.
Reducer = Callable[[Any], Iterable[Any]]


@dataclass
class MinimizationResult:
    """Outcome of greedy delta debugging on one violating candidate."""

    candidate: Any
    evidence: Any
    #: Re-executions spent confirming/refuting reduction proposals.
    executions: int = 0
    #: Accepted reductions, in order (reducer name per step).
    reductions: list[str] = field(default_factory=list)


def greedy_minimize(
    candidate: Any,
    evidence: Any,
    reducers: Sequence[tuple[str, Reducer]],
    execute: Executor,
    *,
    max_executions: int = 256,
) -> MinimizationResult:
    """Greedy delta debugging: accept any reduction that still violates.

    Each reducer proposes strictly smaller variants of the current
    candidate; the first variant whose re-execution still produces
    evidence becomes the new candidate and the scan restarts.  The loop
    ends at a fixpoint (no reducer can shrink further) or at the execution
    budget.  Greedy 1-minimality, not global optimality — the classic
    ddmin trade-off: every re-execution is a full seeded run, so the
    budget matters more than the last dropped step.
    """
    result = MinimizationResult(candidate=candidate, evidence=evidence)
    progress = True
    while progress and result.executions < max_executions:
        progress = False
        for name, reducer in reducers:
            for smaller in reducer(result.candidate):
                if result.executions >= max_executions:
                    break
                result.executions += 1
                smaller_evidence = execute(smaller)
                if smaller_evidence is not None:
                    result.candidate = smaller
                    result.evidence = smaller_evidence
                    result.reductions.append(name)
                    progress = True
                    break
            if progress:
                break
    return result
