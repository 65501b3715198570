"""Campaign aggregation: per-axis rollups and rendered summaries.

:func:`build_campaign_report` folds the per-run records of a campaign into
a :class:`CampaignReport` — totals plus rollups along every axis of
:data:`~repro.campaign.spec.AXES`.  The aggregate is deterministic for a
fixed seed set: records are re-sorted by ``run_id`` (worker count only
varies the on-disk order) and wall-clock timing lives in a separate
``timing`` section that :meth:`CampaignReport.deterministic_dict` drops.

:func:`render_campaign_report` renders the same aggregate as a plain-text
table for terminals or as GitHub-flavored markdown for job summaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..analysis.reporting import format_markdown_table, format_table
from .spec import AXES, CampaignSpec, RunSpec

#: Summary counters summed into totals and every rollup bucket.
ROLLUP_COUNTERS = (
    "faults_injected",
    "violations_predicted",
    "violations_avoided",
    "live_inconsistent_states",
    "violations_observed",
    "churn_events",
)


def _empty_bucket() -> dict[str, Any]:
    bucket: dict[str, Any] = {"runs": 0, "succeeded": 0, "failed": 0}
    for counter in ROLLUP_COUNTERS:
        bucket[counter] = 0
    return bucket


def _fold(bucket: dict[str, Any], record: dict[str, Any]) -> None:
    bucket["runs"] += 1
    if record["status"] == "ok":
        bucket["succeeded"] += 1
        summary = record.get("summary") or {}
        for counter in ROLLUP_COUNTERS:
            bucket[counter] += int(summary.get(counter, 0))
    else:
        bucket["failed"] += 1


@dataclass
class CampaignReport:
    """The aggregated result of one campaign execution."""

    axes: dict[str, Any]
    totals: dict[str, Any]
    rollups: dict[str, dict[str, dict[str, Any]]]
    failures: list[dict[str, Any]]
    runs: list[dict[str, Any]]
    #: per-property columns: property id -> {"violations", "runs_affected"},
    #: folded from every successful run's per-property violation counts.
    properties: dict[str, dict[str, int]] = field(default_factory=dict)
    #: deterministic obs counters summed over every successful run, sorted
    #: by name (parallel.* counters are already excluded per-run).
    metrics: dict[str, int] = field(default_factory=dict)
    timing: dict[str, Any] = field(default_factory=dict)

    @property
    def run_count(self) -> int:
        return int(self.totals["runs"])

    @property
    def succeeded(self) -> int:
        return int(self.totals["succeeded"])

    @property
    def failed(self) -> int:
        return int(self.totals["failed"])

    def violations_observed(self) -> int:
        return int(self.totals["violations_observed"])

    def faultless_runs(self) -> list[str]:
        """Run ids that requested fault presets but injected nothing."""
        missing = []
        for run in self.runs:
            if run["status"] != "ok" or not run["faults"]:
                continue
            if int((run.get("summary") or {}).get("faults_injected", 0)) <= 0:
                missing.append(run["run_id"])
        return missing

    def deterministic_dict(self) -> dict[str, Any]:
        """The seed-reproducible aggregate: identical across reruns and
        worker counts of the same campaign."""
        return {
            "axes": self.axes,
            "totals": self.totals,
            "rollups": self.rollups,
            "properties": self.properties,
            "metrics": self.metrics,
            "failures": self.failures,
            "runs": self.runs,
        }

    def to_dict(self) -> dict[str, Any]:
        data = self.deterministic_dict()
        data["timing"] = self.timing
        return data

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def build_campaign_report(
    spec: CampaignSpec,
    runs: Sequence[RunSpec],
    records: Sequence[dict[str, Any]],
    *,
    jobs: int,
    resumed: int = 0,
    wall_clock_seconds: float = 0.0,
) -> CampaignReport:
    """Fold run records into the deterministic campaign aggregate."""
    by_id = {record["run"]["run_id"]: record for record in records}
    ordered = [by_id[run.run_id] for run in runs if run.run_id in by_id]
    ordered.sort(key=lambda record: record["run"]["run_id"])

    cells = [RunSpec.from_dict(record["run"]) for record in ordered]
    # Axes the aggregate format predates only appear once swept.
    reported = [axis for axis in AXES if axis.in_aggregate or any(
        getattr(cell, axis.cell) != axis.default for cell in cells)]

    totals = _empty_bucket()
    rollups: dict[str, dict[str, dict[str, Any]]] = {
        axis.rollup: {} for axis in reported}
    properties: dict[str, dict[str, int]] = {}
    metrics: dict[str, int] = {}
    failures = []
    run_rows = []
    for record, cell in zip(ordered, cells):
        run = record["run"]
        _fold(totals, record)
        for axis in reported:
            key = str(axis.label(getattr(cell, axis.cell)))
            _fold(rollups[axis.rollup].setdefault(key, _empty_bucket()),
                  record)
        if record["status"] == "ok":
            by_property = (record.get("summary") or {}).get(
                "violations_by_property"
            ) or {}
            for name, count in by_property.items():
                column = properties.setdefault(
                    name, {"violations": 0, "runs_affected": 0}
                )
                column["violations"] += int(count)
                column["runs_affected"] += 1
            for name, value in (
                (record.get("summary") or {}).get("metrics") or {}
            ).items():
                metrics[name] = metrics.get(name, 0) + int(value)
        if record["status"] != "ok":
            failures.append(
                {
                    "run_id": run["run_id"],
                    "error": (record.get("error") or "").strip(),
                }
            )
        stored = cell.to_dict()
        run_rows.append(
            {
                "run_id": run["run_id"],
                **{axis.cell: stored[axis.cell] for axis in reported},
                "status": record["status"],
                "summary": record.get("summary"),
            }
        )

    rollups = {
        axis: dict(sorted(buckets.items())) for axis, buckets in rollups.items()
    }
    properties = dict(sorted(properties.items()))
    metrics = dict(sorted(metrics.items()))
    run_wall_clock = sum(
        float(record.get("wall_clock_seconds") or 0.0) for record in ordered
    )
    timing = {
        "jobs": jobs,
        "resumed_runs": resumed,
        "wall_clock_seconds": wall_clock_seconds,
        "run_wall_clock_seconds": run_wall_clock,
    }
    return CampaignReport(
        axes=spec.axes_dict(),
        totals=totals,
        rollups=rollups,
        properties=properties,
        metrics=metrics,
        failures=failures,
        runs=run_rows,
        timing=timing,
    )


_TABLE_COLUMNS = (
    ("runs", "runs"),
    ("succeeded", "ok"),
    ("failed", "failed"),
    ("faults_injected", "faults"),
    ("violations_predicted", "predicted"),
    ("violations_avoided", "avoided"),
    ("live_inconsistent_states", "inconsistent"),
    ("violations_observed", "observed"),
)


#: Rollups rendered in the summary table: every axis but the seeds, which
#: are repetitions of a configuration rather than configurations.
_TABLE_ROLLUPS = tuple(axis.rollup for axis in AXES if axis.field != "seeds")


def _rollup_rows(report: CampaignReport) -> list[list[Any]]:
    rows = []
    for axis in _TABLE_ROLLUPS:
        buckets = report.rollups.get(axis, {})
        if len(buckets) < 2 and axis != "system":
            # A single-valued axis repeats the totals line; skip the noise.
            continue
        for value, bucket in buckets.items():
            rows.append(
                [f"{axis}={value}"] + [bucket[key] for key, _ in _TABLE_COLUMNS]
            )
    rows.append(["total"] + [report.totals[key] for key, _ in _TABLE_COLUMNS])
    return rows


def render_campaign_report(
    report: CampaignReport,
    *,
    markdown: bool = False,
) -> str:
    """Render the aggregate as a plain-text or GitHub-markdown summary."""
    timing = report.timing
    headline = (
        f"campaign: {report.run_count} runs "
        f"(ok {report.succeeded}, failed {report.failed}) · "
        f"jobs {timing.get('jobs', '?')} · "
        f"wall-clock {timing.get('wall_clock_seconds', 0.0):.1f}s"
    )
    if timing.get("resumed_runs"):
        headline += f" · resumed {timing['resumed_runs']}"

    tables = [("per-axis rollups",
               ["axis"] + [label for _, label in _TABLE_COLUMNS],
               _rollup_rows(report))]
    if report.properties:
        tables.append(("violations by property",
                       ["property", "violations", "runs affected"],
                       [[name, column["violations"], column["runs_affected"]]
                        for name, column in report.properties.items()]))
    failures = [(failure["run_id"],
                 (failure["error"].splitlines()[-1:] or [""])[0])
                for failure in report.failures]
    if not markdown:
        lines = [headline]
        lines += [format_table(headers, rows, title=title)
                  for title, headers, rows in tables]
        if failures:
            lines.append(f"failures ({len(failures)}):")
            lines += [f"  {run_id}: {error}" for run_id, error in failures]
        return "\n".join(lines)
    lines = ["### Campaign summary", "", headline]
    for index, (title, headers, rows) in enumerate(tables):
        if index:  # the rollup table sits directly under the headline
            lines += ["", f"#### {title.capitalize()}"]
        lines += ["", format_markdown_table(headers, rows)]
    if failures:
        lines += ["", f"#### Failures ({len(failures)})", ""]
        lines += [f"- `{run_id}` — {error}" for run_id, error in failures]
    return "\n".join(lines)
