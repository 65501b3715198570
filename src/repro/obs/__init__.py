"""``repro.obs`` — the observability surface for the whole stack.

Three pillars, one package:

* :mod:`repro.obs.tracer` — structured JSONL execution traces (schema v1):
  event outcomes, message send→deliver causal edges, checkpoint gathers,
  model-checker runs, steering-filter installs/triggers, property
  violations, fault injections.  Its ``RECORD_FIELDS`` table is the
  schema: ``Tracer.record`` builds every record from it and
  ``validate_trace`` checks every record against it.
* :mod:`repro.obs.metrics` — the per-run metrics registry (counters,
  gauges, histograms) snapshotted into ``RunReport.metrics`` and folded
  deterministically into campaign aggregates.
* :mod:`repro.obs.trace_tools` / :mod:`repro.obs.export` — analysis and
  Chrome trace-event export, backing the ``python -m repro trace``
  subcommand.

This package is a strict *leaf*: it imports nothing from the rest of
``repro``, so every layer (runtime, core, mc, faults, api, campaign) can
depend on it without cycles.  The disabled path is the default — a
:class:`~repro.obs.context.ObsContext` with both members ``None`` — and
costs only attribute checks.
"""

from .context import ObsContext
from .log import progress_logger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import (
    RECORD_KINDS,
    SCHEMA_VERSION,
    JsonlTracer,
    MemoryTracer,
    Tracer,
)
from .trace_tools import (
    TraceSummary,
    causal_chain,
    filter_records,
    format_records,
    read_trace,
    strip_wall_fields,
    summarize_records,
    validate_trace,
)
from .export import chrome_trace, write_chrome_trace

__all__ = [
    "ObsContext",
    "progress_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RECORD_KINDS",
    "SCHEMA_VERSION",
    "Tracer",
    "MemoryTracer",
    "JsonlTracer",
    "TraceSummary",
    "read_trace",
    "summarize_records",
    "filter_records",
    "format_records",
    "validate_trace",
    "strip_wall_fields",
    "causal_chain",
    "chrome_trace",
    "write_chrome_trace",
]
