"""Span tracing at the layer seams, installed from outside the program.

The harness wraps the class methods and module functions listed in
:data:`SEAMS` and records one span per call (name, layer, start, end,
parent) in memory; nothing inside ``src/`` knows it is being traced.  A
layer's *self time* is its spans' duration minus the part their child spans
cover, so the self times of all layers plus ``other`` (the timed section
outside every span) add up to the traced wall time.

Traced runs are never used for end-to-end numbers: the wrappers cost a few
hundred nanoseconds per call and the hot seams are called 10^5 times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Optional

LAYERS = ("runtime.simulator", "runtime.state", "runtime.serialization",
          "mc", "properties", "core.controller", "core.monitor", "backends",
          "workload", "other")

#: (module, class or None, attribute, layer).  Public seams, plus the three
#: private ones marked below where the program has no public call at the
#: boundary; without them handler execution under the tcp backend and the
#: workload driver's own work would be booked on the wrong layer.
SEAMS = (
    ("repro.runtime.simulator", "Simulator", "run", "runtime.simulator"),
    ("repro.runtime.simulator", "Simulator", "step", "runtime.simulator"),
    ("repro.runtime.simulator", "Simulator", "_execute_event",      # private
     "runtime.simulator"),
    ("repro.runtime.simulator", "Simulator", "inject_app", "workload"),
    ("repro.workload.driver", "OpenLoopDriver", "_burst", "workload"),  # private
    ("repro.workload.driver", "OpenLoopDriver", "_observe", "workload"),  # private
    ("repro.backends.tcp", "AsyncioTcpBackend", "run", "backends"),
    ("repro.backends.wire", None, "encode_frame", "backends"),
    ("repro.backends.wire", None, "decode_frame", "backends"),
    ("repro.runtime.serialization", None, "to_compact_bytes",
     "runtime.serialization"),
    ("repro.runtime.serialization", None, "from_compact_bytes",
     "runtime.serialization"),
    ("repro.runtime.state", "NodeState", "clone", "runtime.state"),
    ("repro.runtime.state", "NodeState", "signature", "runtime.state"),
    ("repro.mc.global_state", "GlobalState", "signature", "mc"),
    ("repro.mc.transition", "TransitionSystem", "apply", "mc"),
    ("repro.mc.transition", "TransitionSystem", "apply_filtered", "mc"),
    ("repro.mc.transition", "TransitionSystem", "enabled_events", "mc"),
    ("repro.mc.parallel.engine", "SerialEngine", "run", "mc"),
    ("repro.core.consequence", None, "consequence_prediction", "mc"),
    ("repro.properties.base", None, "check_all", "properties"),
    ("repro.properties.base", "SafetyProperty", "violations", "properties"),
    ("repro.properties.base", "NodeScopedProperty", "violations_at",
     "properties"),
    ("repro.core.controller", "CrystalBallController", "on_tick",
     "core.controller"),
    ("repro.core.controller", "CrystalBallController",
     "handle_control_message", "core.controller"),
    ("repro.core.controller", "CrystalBallController", "filter_event",
     "core.controller"),
    ("repro.core.controller", "CrystalBallController",
     "immediate_safety_check", "core.controller"),
    ("repro.core.steering", None, "check_filter_safety", "core.controller"),
    ("repro.core.monitor", "LivePropertyMonitor", "__call__",  # the observer
     "core.monitor"),
)


class SpanRecorder:
    """In-memory spans of one traced unit."""

    def __init__(self) -> None:
        #: (name, layer, start, end, parent index or -1)
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        #: ``SearchStats`` of every search the unit ran, for the dedup and
        #: memory figures of the ``mc`` layer.
        self.search_stats: list[Any] = []

    def wrap(self, fn: Callable, name: str, layer: str,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every seam.  The unit's child process exits afterwards, so
        nothing is ever unwrapped."""
        for module_name, class_name, attr, layer in SEAMS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr] if class_name else getattr(
                module, attr)
            on_result = None
            if (class_name, attr) == ("SerialEngine", "run"):
                def on_result(result: Any) -> None:
                    self.search_stats.append(result.stats)
            label = f"{class_name or module_name.rsplit('.', 1)[-1]}.{attr}"
            wrapped = self.wrap(original, label, layer, on_result)
            if class_name:
                setattr(owner, attr, wrapped)
                continue
            # A module function is bound by name wherever it was imported.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro"):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    # ---------------------------------------------------------------- analysis

    def self_seconds(self, wall: float) -> dict[str, float]:
        """Self time per layer; ``other`` is the wall time no span covers."""
        child_time = [0.0] * len(self.spans)
        totals = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        for index, (_, layer, start, end, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child_time[index]
        totals["other"] = max(wall - covered, 0.0)
        return totals

    def call_stats(self) -> dict[str, dict]:
        """span name -> count, mean, p50 and p95 of its durations (s)."""
        by_name: dict[str, list[float]] = {}
        for name, _, start, end, _ in self.spans:
            by_name.setdefault(name, []).append(end - start)
        stats = {}
        for name, values in by_name.items():
            values.sort()
            stats[name] = {
                "count": len(values), "mean": sum(values) / len(values),
                "p50": values[len(values) // 2],
                "p95": values[min(len(values) - 1, int(len(values) * 0.95))]}
        return stats

    def write_chrome_trace(self, path: str, run_id: str) -> None:
        """Chrome ``trace_event`` JSON (load in chrome://tracing, Perfetto)."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"parent": parent, "run": run_id},
        } for name, layer, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "run": run_id}, handle)
