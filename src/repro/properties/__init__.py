"""First-class property API: registry, combinators, structured violations.

This package is the single source of truth for the properties CrystalBall
checks.  It provides:

* the property classes (:class:`SafetyProperty`, :class:`LivenessProperty`)
  with namespaced ids, severities and tags;
* combinators: :func:`node_property`, :class:`SummaryProperty`, the
  bounded-liveness operators :func:`eventually` and :func:`leads_to`, and
  the :func:`typed_check` / :func:`typed_states` state-type guards;
* the global :mod:`registry <repro.properties.registry>` the systems'
  properties self-register into, with glob-pattern selection;
* :class:`ViolationRecord`, the structured violation-episode record the
  live monitor emits and the reporting stack aggregates.

``repro.mc`` re-exports the safety subset (``SafetyProperty``,
``PropertyViolation``, ``check_all``, ``node_property``) next to the
searches that consume it.
"""

from .base import (
    SCOPES,
    SEVERITIES,
    NodeScopedProperty,
    Property,
    PropertyViolation,
    SafetyProperty,
    SummaryProperty,
    check_all,
    derive_all,
    listed_all,
    node_property,
    safety_properties,
    typed_check,
    typed_states,
)
from .liveness import LivenessProperty, LivenessTracker, eventually, leads_to
from .registry import (
    all_properties,
    get_property,
    register_properties,
    register_property,
    resolve_properties,
    select_properties,
    unregister_property,
)
from .violations import ViolationRecord, state_digest

__all__ = [
    "SCOPES",
    "SEVERITIES",
    "NodeScopedProperty",
    "Property",
    "PropertyViolation",
    "SafetyProperty",
    "SummaryProperty",
    "check_all",
    "derive_all",
    "listed_all",
    "node_property",
    "safety_properties",
    "typed_check",
    "typed_states",
    "LivenessProperty",
    "LivenessTracker",
    "eventually",
    "leads_to",
    "all_properties",
    "get_property",
    "register_properties",
    "register_property",
    "resolve_properties",
    "select_properties",
    "unregister_property",
    "ViolationRecord",
    "state_digest",
]
