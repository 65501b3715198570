"""Table and figure formatting for the benchmark harness.

Every benchmark regenerates the rows or series of one table/figure of the
paper; these helpers print them in a consistent, plain-text form so the
benchmark output can be compared side-by-side with the paper
(EXPERIMENTS.md records that comparison).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping, Sequence


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable primitives.

    Sets and frozensets become sorted lists, tuples become lists, enums
    their ``value``, dataclasses dicts, and anything else that is not a
    JSON primitive is rendered with ``str`` (addresses, paths, ...).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return str(value)


def render_run_report(report: Any) -> str:
    """Plain-text rendering of a :class:`~repro.api.report.RunReport`."""
    data = report.to_dict()
    lines = [
        f"system: {data['system']}"
        + (f"  scenario: {data['scenario']}" if data.get("scenario") else "")
        + (f"  backend: {data['backend']}" if data.get("backend") else ""),
        f"mode: {data['mode']}  seed: {data['seed']}  "
        f"nodes: {data['node_count']}  "
        f"simulated: {data['simulated_seconds']:.1f}s  "
        f"wall-clock: {data['wall_clock_seconds']:.2f}s  "
        f"churn events: {data['churn_events']}",
    ]
    accounting = data.get("accounting", {})
    if accounting:
        lines.append("accounting: " + "  ".join(
            f"{key}={value}" for key, value in accounting.items()))
    faults = data.get("faults", {})
    if faults:
        by_type = faults.get("by_type", {})
        parts = [f"injected={faults.get('faults_injected', 0)}"]
        parts += [f"{name}={counts.get('injected', 0)}"
                  for name, counts in sorted(by_type.items())]
        lines.append("faults: " + "  ".join(parts))
    monitor = data.get("monitor", {})
    if monitor:
        lines.append("monitor: " + "  ".join(
            f"{key}={value}" for key, value in sorted(monitor.items())
            if not isinstance(value, (list, dict))))
    outcome = data.get("outcome", {})
    if outcome:
        lines.append("outcome:")
        for key, value in sorted(outcome.items()):
            lines.append(f"  {key}: {value}")
    nodes = data.get("nodes", [])
    if nodes:
        shown = ("ticks", "model_checker_runs", "snapshots_collected",
                 "incomplete_snapshots", "violations_predicted",
                 "filters_installed", "filters_triggered", "isc_blocks",
                 "replayed_paths", "replay_reproduced")
        headers = ["node", "mode"] + list(shown)
        rows = [[node["node"], node["mode"]]
                + [node["stats"].get(name, 0) for name in shown]
                for node in nodes]
        lines.append(format_table(headers, rows, title="per-node controllers"))
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 *, title: str = "") -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str],
                          rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub-flavored markdown table (job summaries, PR bodies)."""
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(cells) + " |"

    lines = [line([str(h) for h in headers]),
             line(["---"] * len(headers))]
    for row in rows:
        lines.append(line([_fmt(cell) for cell in row]))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
