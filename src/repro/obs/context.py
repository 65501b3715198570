"""The observability context threaded through the whole stack.

One :class:`ObsContext` bundles the tracer and the metrics registry for a
run.  The simulator owns it (``sim.obs``) and every other layer — monitor,
controller, nemesis, search engines — reaches observability through that
single handle.  Both members default to ``None``, which *is* the disabled
path: instrumentation sites guard ``if self.obs.tracer is not None``
before the one ``tracer.record(kind, t, ...)`` call, so a run without
observability never builds a record or touches a metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .metrics import MetricsRegistry
from .tracer import Tracer


@dataclass
class ObsContext:
    """Tracer + metrics for one run; both ``None`` means fully disabled."""

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None

    def close(self) -> None:
        """Flush the tracer sink, if any (idempotent)."""
        if self.tracer is not None:
            self.tracer.close()
