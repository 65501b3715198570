"""Parallel campaign execution: a worker pool over the expanded run matrix.

One interpreter amortizes startup across every cell of the matrix (the old
nightly path paid a cold ``python -m repro`` subprocess per combination);
cells are distributed over a ``multiprocessing`` pool sized from
``os.cpu_count()``, with a serial in-process fallback for single-CPU
environments and ``jobs=1``.  Each finished run is streamed to the JSONL
:class:`~repro.campaign.store.ResultStore` immediately, so an interrupted
campaign is resumable from its partial results.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, Optional, Union

from ..api.report import RunReport
from .report import CampaignReport, build_campaign_report
from .spec import ATTACK_MODE, CampaignSpec, RunSpec, scenario_kind
from .store import ResultStore, make_record

#: ``progress(record)`` hook invoked in the parent as each run completes.
ProgressHook = Callable[[dict[str, Any]], None]


def run_attack_cell(run: RunSpec) -> RunReport:
    """Execute one ``modes=attack`` cell: hunt → minimize → replay.

    The cell's fault presets become the attack surface and its single
    named property the falsification target (``CampaignSpec.expand``
    enforces both).  The returned report is the minimized violating run
    (or the last seeded run of a failed hunt) with the attack artifact
    attached under ``outcome["attack"]`` — so rollups aggregate attack
    cells exactly like live cells, plus the attack verdict.
    """
    from ..attack import AttackConfig, find_attack

    config = AttackConfig(
        system=run.system,
        property_id=run.properties[0],
        faults=run.faults,
        nodes=run.nodes,
        duration=run.duration,
        seed=run.seed,
        options=dict(run.options),
    )
    result = find_attack(config)
    report = result.run_report
    if report is None:
        # The hunt never completed a single run (attempt budget 0);
        # synthesize an empty report so the record still aggregates.
        report = RunReport(system=run.system, seed=run.seed)
    summary = result.report.to_dict()
    # The full metrics snapshot and the pre-minimization trace stay in the
    # standalone artifact; campaign records carry the actionable core.
    summary.pop("metrics", None)
    summary.pop("original_trace", None)
    report.outcome["attack"] = summary
    return report


def run_one(run: RunSpec) -> RunReport:
    """Execute one campaign cell through the fluent experiment API."""
    if run.mode == ATTACK_MODE:
        return run_attack_cell(run)
    experiment = run.experiment()
    # Metrics are always on for live cells, live scenarios included:
    # counters are deterministic and feed the aggregate's metrics rollup
    # (cheap — no tracing).  A search scenario has no registry to read.
    if scenario_kind(run.system, run.scenario) == "live":
        experiment.metrics(True)
    return experiment.run()


def summarize_report(report: RunReport) -> dict[str, Any]:
    """The deterministic per-run counters campaign rollups aggregate.

    Wall-clock time is deliberately absent: everything here reproduces
    bit-for-bit from the seeds, which is what makes two runs of the same
    campaign yield identical aggregate JSON.
    """
    accounting = report.accounting()
    # Of the obs metrics, only counters reproduce bit-for-bit from the
    # seed, and parallel.* counters depend on worker scheduling — the
    # rollup takes exactly the deterministic remainder.
    counters = (report.metrics or {}).get("counters", {})
    summary: dict[str, Any] = {
        "node_count": report.node_count,
        "metrics": {name: int(value)
                    for name, value in sorted(counters.items())
                    if not name.startswith("parallel.")},
        "simulated_seconds": report.simulated_seconds,
        "churn_events": report.churn_events,
        "faults_injected": report.faults_injected(),
        "fault_types": sorted(report.fault_breakdown()),
        "violations_predicted": accounting["violations_predicted"],
        "violations_avoided": accounting["violations_avoided"],
        "live_inconsistent_states": accounting["live_inconsistent_states"],
        "violations_observed": report.violations_observed(),
        "violation_episodes": int(
            report.monitor.get("distinct_violation_episodes", 0)),
        "violations_by_property": report.violations_by_property(),
        "requests_injected": report.requests_injected(),
        "requests_completed": report.requests_completed(),
    }
    attack = (report.outcome or {}).get("attack")
    if attack:
        # Attack cells surface their verdict in the summary row (all of it
        # reproduces from the seeds); the full artifact stays in the
        # record's report dict.
        summary["attack"] = {
            "found": bool(attack.get("found")),
            "attempts": int(attack.get("attempts", 0)),
            "executions": int(attack.get("executions", 0)),
            "original_steps": int(attack.get("original_steps", 0)),
            "minimized_steps": int(attack.get("minimized_steps", 0)),
            "reductions": list(attack.get("reductions") or ()),
            "replay_verified": bool(
                (attack.get("replay") or {}).get("verified")
            ),
        }
    return summary


def execute_run(run_dict: dict[str, Any]) -> dict[str, Any]:
    """Pool worker entry point: run one cell, never raise.

    Takes and returns plain dicts so the pool only ever pickles JSON-shaped
    data; a failing run becomes an ``"error"`` record carrying the
    traceback, and the campaign carries on (the nightly log should show the
    full matrix, not just the first casualty).
    """
    run = RunSpec.from_dict(run_dict)
    started = time.perf_counter()
    try:
        report = run_one(run)
    except Exception:
        return make_record(
            run.to_dict(),
            status="error",
            wall_clock_seconds=time.perf_counter() - started,
            error=traceback.format_exc(),
        )
    return make_record(
        run.to_dict(),
        status="ok",
        wall_clock_seconds=time.perf_counter() - started,
        summary=summarize_report(report),
        report=report.to_dict(),
    )


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: Optional[int] = None,
    out: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
    progress: Optional[ProgressHook] = None,
) -> CampaignReport:
    """Execute a :class:`CampaignSpec` and aggregate the results.

    ``jobs=None`` sizes the pool from ``os.cpu_count()``; ``jobs<=1`` (or a
    single pending run) executes serially in-process.  ``out`` names the
    JSONL result store (without it, results stay in memory only), and
    ``resume=True`` skips the cells that store already holds.
    """
    store = ResultStore(out) if out is not None else None
    started = time.perf_counter()
    runs = spec.expand()

    completed: dict[str, dict[str, Any]] = {}
    if resume:
        if store is None:
            raise ValueError("resume needs a result store (out=...)")
        # A record only counts as done when its *entire* run dict
        # matches the current cell — same run_id with a different
        # duration/nodes/network/options must re-execute, not sneak
        # stale numbers into the aggregate.  Stored dicts are
        # normalized through RunSpec so records written before a new
        # RunSpec field existed still match when the new field holds
        # its default (from_dict fills defaults for absent keys).
        wanted = {run.run_id: run.to_dict() for run in runs}

        def normalized(run_dict: Any) -> Optional[dict[str, Any]]:
            try:
                return RunSpec.from_dict(run_dict).to_dict()
            except Exception:
                return None  # torn/foreign record: not resumable

        completed = {
            run_id: record
            for run_id, record in store.completed().items()
            if run_id in wanted
            and normalized(record.get("run")) == wanted[run_id]
        }

    pending = [run for run in runs if run.run_id not in completed]
    records = list(completed.values())

    jobs = jobs if jobs is not None else os.cpu_count() or 1
    jobs = max(1, min(jobs, len(pending) or 1))

    def collect(record: dict[str, Any]) -> None:
        if store is not None:
            store.append(record)
        if progress is not None:
            progress(record)
        records.append(record)

    if jobs == 1:
        for run in pending:
            collect(execute_run(run.to_dict()))
    elif pending:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.imap_unordered(
                execute_run,
                [run.to_dict() for run in pending],
            )
            for record in results:
                collect(record)

    return build_campaign_report(
        spec,
        runs,
        records,
        jobs=jobs,
        resumed=len(completed),
        wall_clock_seconds=time.perf_counter() - started,
    )
