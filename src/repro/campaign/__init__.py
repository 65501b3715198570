"""Declarative sweeps over system × scenario × faults × seeds × modes.

The campaign subsystem is the batch layer over the unified experiment API:

* :class:`CampaignSpec` expands axes into a matrix of :class:`RunSpec`
  cells, validated against the system/scenario/fault-preset registries;
* :func:`run_campaign` executes the matrix across a ``multiprocessing``
  worker pool (serial fallback for single-CPU environments), streaming
  every finished run into a JSONL :class:`ResultStore` so interrupted
  campaigns resume from partial results;
* :class:`CampaignReport` aggregates deterministic per-axis rollups, and
  :func:`render_campaign_report` renders them as a terminal table or
  GitHub-flavored markdown.

Entry points: ``run_campaign(CampaignSpec(...))`` from Python and
``python -m repro campaign`` (which builds the same spec from ``--axes``)
— the nightly fault matrix is one campaign invocation.
"""

from .report import (
    CampaignReport,
    build_campaign_report,
    render_campaign_report,
)
from .runner import (
    execute_run,
    run_campaign,
    run_one,
    summarize_report,
)
from .spec import (
    CampaignSpec,
    RunSpec,
    parse_axes,
)
from .store import ResultStore, make_record

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "ResultStore",
    "RunSpec",
    "build_campaign_report",
    "execute_run",
    "make_record",
    "parse_axes",
    "render_campaign_report",
    "run_campaign",
    "run_one",
    "summarize_report",
]
