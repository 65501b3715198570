"""``python -m repro`` — command-line front end of the unified API.

Subcommands::

    python -m repro list                      # registered systems & scenarios
    python -m repro properties 'randtree.*'   # the property registry
    python -m repro run randtree --ticks 50 --json
    python -m repro run randtree --properties 'randtree.*' --json
    python -m repro run paxos --scenario figure13-bug1 --mode steering
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Optional, Sequence

from ..analysis.reporting import format_table, render_run_report
from ..campaign.spec import RunSpec
from ..obs import progress_logger
from .registry import get_system, list_systems


def _parse_option(raw: str) -> tuple[str, Any]:
    """``key=value`` options with JSON-ish value coercion."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"option {raw!r} must have the form key=value")
    key, value = raw.split("=", 1)
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _parse_axis(raw: str) -> tuple[str, str]:
    """``key=values`` axis arguments for the campaign subcommand."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"axis {raw!r} must have the form key=values")
    key, values = raw.split("=", 1)
    return key, values


#: The flags ``run`` and ``attack`` share, declared once: everything about
#: each but its help text and (where the row has none) its default, which
#: belong to the subcommand.
_SHARED_FLAGS: dict[str, dict[str, Any]] = {
    "--mode": {},
    "--nodes": {"type": int},
    "--duration": {"type": float},
    "--seed": {"type": int},
    "--faults": {"metavar": "PRESET", "action": "append", "default": []},
    "--option": {"metavar": "KEY=VALUE", "type": _parse_option,
                 "action": "append", "default": []},
    "--trace": {"metavar": "PATH"},
    "--json": {"action": "store_true", "dest": "as_json", "default": False},
}


def _shared_flag(parser: argparse.ArgumentParser, flag: str, *, help: str,
                 default: Any = None) -> None:
    parser.add_argument(
        flag, help=help, **{"default": default, **_SHARED_FLAGS[flag]})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run CrystalBall experiments over the registered systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list",
                              help="list registered systems and scenarios")
    list_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable output")

    faults_cmd = sub.add_parser("faults",
                                help="list fault-injection presets")
    faults_cmd.add_argument("--json", action="store_true", dest="as_json",
                            help="machine-readable output")

    props_cmd = sub.add_parser(
        "properties", help="list the registered safety/liveness properties")
    props_cmd.add_argument("pattern", nargs="?", default=None,
                           help="glob filter over property ids "
                                "(e.g. 'randtree.*', '*.agreement')")
    props_cmd.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable output")

    run = sub.add_parser("run",
                         help="run one system or scripted scenario")
    run.add_argument("system", help="registered system name (see `list`)")
    run.add_argument("--scenario", default=None,
                     help="named scripted scenario instead of a live run")
    _shared_flag(run, "--mode", default="debug",
                 help="CrystalBall mode: off, debug, steering, isc-only")
    _shared_flag(run, "--nodes", help="deployment size")
    _shared_flag(run, "--duration", help="simulated seconds to run")
    run.add_argument("--ticks", type=int, default=None,
                     help="duration in controller tick intervals")
    _shared_flag(run, "--seed", default=0, help="random seed")
    run.add_argument("--engine", default=None,
                     help="search engine: serial, parallel, parallel:N or "
                          "portfolio")
    run.add_argument("--max-states", type=int, default=None,
                     help="consequence-prediction state budget per run")
    run.add_argument("--max-depth", type=int, default=None,
                     help="consequence-prediction depth bound")
    run.add_argument("--check-period", type=int, default=None,
                     help="sampled deep checking: each controller runs its "
                          "deep-check round every N-th wakeup, phase-rotated "
                          "across nodes (default 1 = every round)")
    run.add_argument("--churn-interval", type=float, default=None,
                     help="mean seconds between churn events")
    run.add_argument("--no-churn", action="store_true", help="disable churn")
    _shared_flag(run, "--faults",
                 help="fault preset(s) to inject, comma-separable and "
                      "repeatable (see `python -m repro faults`)")
    run.add_argument("--fault-seed", type=int, default=None,
                     help="nemesis seed (defaults to run seed + 13)")
    run.add_argument("--properties", metavar="PATTERN", action="append",
                     default=[],
                     help="check only properties matching these id "
                          "glob(s), comma-separable and repeatable "
                          "(see `python -m repro properties`); replaces "
                          "the system's default set")
    run.add_argument("--exclude-properties", metavar="PATTERN",
                     action="append", default=[],
                     help="drop matching properties from the selection "
                          "(repeatable; needs --properties)")
    run.add_argument("--fail-on-violation", action="store_true",
                     help="exit non-zero when the run observes a safety "
                          "violation (live monitor or scenario outcome)")
    run.add_argument("--workload", default=None,
                     help="drive the live run with this registered "
                          "open-loop workload (see `list`)")
    run.add_argument("--workload-rate", type=float, default=None,
                     help="override the workload's request rate "
                          "(requests per simulated second)")
    run.add_argument("--workload-burst", type=int, default=None,
                     help="override the requests injected per generator "
                          "wakeup")
    run.add_argument("--workload-keys", type=int, default=None,
                     help="override the workload's key-space size")
    run.add_argument("--workload-distribution", default=None,
                     choices=["uniform", "zipf", "hotspot", "sequential"],
                     help="override the key-popularity distribution")
    run.add_argument("--workload-start", type=float, default=None,
                     help="override the stream's start offset (simulated "
                          "seconds)")
    run.add_argument("--workload-duration", type=float, default=None,
                     help="override the stream's length (simulated seconds)")
    run.add_argument("--backend", default=None,
                     help="execution backend: sim (default, simulated "
                          "transport) or tcp (real TCP sockets)")
    run.add_argument("--backend-option", metavar="KEY=VALUE",
                     type=_parse_option, action="append", default=[],
                     help="backend-specific option, e.g. host=127.0.0.1 "
                          "for tcp (repeatable; needs --backend)")
    _shared_flag(run, "--option",
                 help="system/scenario-specific option (repeatable)")
    _shared_flag(run, "--trace",
                 help="write a structured JSONL execution trace to PATH "
                      "(inspect with `python -m repro trace PATH`)")
    run.add_argument("--metrics", action="store_true",
                     help="collect obs metrics into the report")
    _shared_flag(run, "--json", help="print the full RunReport as JSON")

    attack = sub.add_parser(
        "attack",
        help="hunt for a minimal byzantine counterexample to a named "
             "property and emit an attack-report artifact")
    attack.add_argument("system", help="registered system name (see `list`)")
    attack.add_argument("--property", dest="property_id", required=True,
                        help="registry id of the property under attack "
                             "(e.g. paxos.agreement)")
    _shared_flag(attack, "--faults",
                 help="byzantine fault preset(s)/type(s) to attack with, "
                      "comma-separable and repeatable (default: "
                      "equivocation)")
    _shared_flag(attack, "--nodes", help="deployment size")
    _shared_flag(attack, "--duration", help="simulated seconds per attempt")
    _shared_flag(attack, "--seed", default=0,
                 help="run seed of every seeded execution")
    attack.add_argument("--attempts", type=int, default=8,
                        help="seeded attack schedules to try (default 8)")
    _shared_flag(attack, "--mode", default="off",
                 help="CrystalBall mode during the attacked runs (off, "
                      "debug, steering, isc-only); steering shows the "
                      "controller filtering the attack")
    attack.add_argument("--no-minimize", action="store_true",
                        help="skip delta-debugging trace minimization")
    _shared_flag(attack, "--option",
                 help="system-specific option (repeatable)")
    _shared_flag(attack, "--trace",
                 help="write a JSONL trace of the final replay run")
    attack.add_argument("--out", metavar="DIR", default="attack-reports",
                        help="directory for the JSON + markdown attack "
                             "report (default: attack-reports)")
    _shared_flag(attack, "--json",
                 help="print the AttackReport as JSON on stdout")

    trace = sub.add_parser(
        "trace", help="inspect a JSONL trace written by `run --trace`")
    trace.add_argument("file", help="trace file (JSONL, schema v1)")
    trace.add_argument("--summary", action="store_true",
                       help="per-kind/per-node summary (default when no "
                            "filter is given)")
    trace.add_argument("--node", default=None,
                       help="only records from this node")
    trace.add_argument("--kind", default=None,
                       help="only records of this kind (event, send, "
                            "deliver, mc_run, filter_install, ...)")
    trace.add_argument("--contains", default=None,
                       help="only records whose JSON contains this "
                            "substring")
    trace.add_argument("--limit", type=int, default=50,
                       help="max records to list (default 50)")
    trace.add_argument("--chrome", metavar="OUT", default=None,
                       help="export as a Chrome trace-event JSON "
                            "(chrome://tracing, Perfetto)")
    trace.add_argument("--why-steering", metavar="NODE", default=None,
                       help="show the causal chain behind the last "
                            "steering decision on NODE")
    trace.add_argument("--validate", action="store_true",
                       help="check the file against trace schema v1 and "
                            "exit")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output")

    from ..campaign.spec import AXES, axes_help

    campaign = sub.add_parser(
        "campaign",
        help=f"sweep {' × '.join(axis.field for axis in AXES)} across a "
             f"worker pool".replace("_", " "))
    campaign.add_argument(
        "--axes", metavar="KEY=VALUES", action="append", default=[],
        type=_parse_axis, help=axes_help())
    campaign.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: os.cpu_count())")
    campaign.add_argument("--out", metavar="PATH", default=None,
                          help="JSONL result store, one line per finished "
                               "run (streamed, resumable)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip runs the --out store already completed")
    campaign.add_argument(
        "--duration", metavar="[SYSTEM=]SECONDS", action="append", default=[],
        help="simulated run length: a number for every system, or "
             "system=seconds (repeatable) for per-system lengths")
    campaign.add_argument("--nodes", type=int, default=None,
                          help="deployment size for live runs")
    campaign.add_argument("--churn", action="store_true",
                          help="enable churn (off by default so the fault "
                               "axis is the only adversary)")
    campaign.add_argument("--fault-seed", type=int, default=None,
                          help="nemesis seed (defaults to run seed + 13)")
    campaign.add_argument("--require-faults", action="store_true",
                          help="fail when a run with fault presets injected "
                               "nothing")
    campaign.add_argument("--fail-on-violation", action="store_true",
                          help="exit non-zero when any run observed a "
                               "safety violation")
    campaign.add_argument("--json", action="store_true", dest="as_json",
                          help="print the aggregate CampaignReport as JSON")
    campaign.add_argument("--markdown-summary", metavar="PATH", default=None,
                          help="also write a GitHub-flavored markdown "
                               "summary to PATH")
    return parser


def _cmd_list(as_json: bool) -> int:
    systems = list_systems()
    if as_json:
        payload = [{
            "name": spec.name,
            "summary": spec.summary,
            "properties": [prop.name for prop in spec.properties],
            "scenarios": {name: scenario.description
                          for name, scenario in sorted(spec.scenarios.items())},
            "workloads": {name: workload.description
                          for name, workload in sorted(spec.workloads.items())},
            "default_nodes": spec.default_nodes,
            "default_duration": spec.default_duration,
        } for spec in systems]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for spec in systems:
        rows.append([spec.name, len(spec.properties),
                     ", ".join(sorted(spec.scenarios)) or "-",
                     ", ".join(sorted(spec.workloads)) or "-", spec.summary])
    print(format_table(
        ["system", "properties", "scenarios", "workloads", "summary"], rows,
        title="Registered systems (python -m repro run <system>)"))
    return 0


def _cmd_properties(pattern: Optional[str], as_json: bool) -> int:
    from ..properties import all_properties, select_properties

    try:
        props = (select_properties(pattern) if pattern is not None
                 else all_properties())
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    props = sorted(props, key=lambda prop: prop.name)
    if as_json:
        print(json.dumps([prop.describe() for prop in props],
                         indent=2, sort_keys=True))
        return 0
    rows = []
    for prop in props:
        info = prop.describe()
        rows.append([
            info["id"], info["kind"], info.get("scope", "-"),
            info["severity"],
            ",".join(tag for tag in info["tags"] if tag != "liveness") or "-",
            (f"within {info['within']:g}s" if "within" in info else "-"),
            info["description"],
        ])
    print(format_table(
        ["property", "kind", "scope", "severity", "tags", "window",
         "description"],
        rows,
        title="Registered properties "
              "(python -m repro run <system> --properties <pattern>)"))
    return 0


def _cmd_faults(as_json: bool) -> int:
    from ..faults.presets import PRESETS

    # Expand with a nominal duration purely to describe the composition.
    expansions = {name: factory(100.0) for name, factory in sorted(PRESETS.items())}
    if as_json:
        payload = {name: [fault.name for fault in faults]
                   for name, faults in expansions.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [[name, ", ".join(fault.name for fault in faults)]
            for name, faults in expansions.items()]
    print(format_table(["preset", "fault types"], rows,
                       title="Fault presets (python -m repro run <system> "
                             "--faults <preset>)"))
    return 0


def _split(chunks: Sequence[str]) -> list[str]:
    """Flatten comma-separable, repeatable option values."""
    return [name for chunk in chunks for name in chunk.split(",") if name]


def _run_spec(args: argparse.Namespace) -> RunSpec:
    """The record ``run``'s flags describe; raises ``KeyError`` /
    ``ValueError`` with a one-line message on bad input."""
    system = get_system(args.system)
    duration = args.duration
    if args.ticks is not None:
        duration = args.ticks * system.tick_interval
    patterns = _split(args.properties)
    if args.properties and not patterns:
        # An empty selection would silently disable all property
        # checking and make --fail-on-violation vacuously green.
        raise ValueError("--properties was given but names no patterns")
    if args.exclude_properties and not patterns:
        raise ValueError("--exclude-properties needs --properties")
    overrides = {key: getattr(args, f"workload_{key}") for key in (
        "rate", "burst", "keys", "distribution", "start", "duration")}
    overrides = {key: value for key, value in overrides.items()
                 if value is not None}
    if overrides and args.workload is None:
        raise ValueError("--workload-* overrides need --workload")
    if args.backend_option and args.backend is None:
        raise ValueError("--backend-option needs --backend")
    # Flags named like a record field pass through by name.
    run = RunSpec.from_dict({
        **vars(args), "duration": duration, "faults": _split(args.faults),
        "properties": patterns or None,
        "properties_exclude": _split(args.exclude_properties),
        "workload_overrides": overrides, "options": dict(args.option),
        "backend_options": dict(args.backend_option),
    })
    # A live run churns at the system's default; a scenario keeps its own.
    interval = args.churn_interval
    if interval is None and run.scenario is None:
        interval = system.default_churn_interval
    if args.no_churn or interval is None:
        return run
    return dataclasses.replace(run, churn=True, churn_interval=interval)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = _run_spec(args).experiment()
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    experiment.trace(args.trace).metrics(args.metrics)

    try:
        report = experiment.run()
    except ValueError as exc:
        # Bad user input (unknown option keys, invalid settings) — report it
        # like the other input errors instead of dumping a traceback.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.as_json:
        print(report.to_json())
    else:
        print(render_run_report(report))
    if args.fail_on_violation and report.violations_observed() > 0:
        print(f"error: run observed {report.violations_observed()} safety "
              f"violation(s) (--fail-on-violation)", file=sys.stderr)
        return 1
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from ..attack import AttackConfig, find_attack

    faults = _split(args.faults)
    config = AttackConfig(
        system=args.system,
        property_id=args.property_id,
        faults=tuple(faults) if faults else ("equivocation",),
        nodes=args.nodes,
        duration=args.duration,
        seed=args.seed,
        attempts=args.attempts,
        mode=args.mode,
        minimize=not args.no_minimize,
        options=dict(args.option),
        trace=args.trace,
    )
    try:
        result = find_attack(config)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    report = result.report
    json_path, md_path = report.write(args.out)
    if args.as_json:
        print(report.to_json())
    elif report.found:
        violation = report.violation or {}
        print(f"FALSIFIED {report.property_id} on {report.system} "
              f"(attempt {report.attempts}, attack seed "
              f"{report.attack_seed})")
        print(f"  violation: t={violation.get('sim_time', 0.0):.3f}s "
              f"digest={violation.get('state_digest')}")
        print(f"  trace: {report.original_steps} -> "
              f"{report.minimized_steps} step(s) after "
              f"{len(report.reductions)} reduction(s)")
        replay = report.replay or {}
        print(f"  replay: "
              f"{'verified' if replay.get('verified') else 'MISMATCH'}")
        print(f"  report: {md_path} (+ {json_path})")
    else:
        print(f"no counterexample to {report.property_id} on "
              f"{report.system} in {report.attempts} attempt(s)")
        print(f"  report: {md_path} (+ {json_path})")
    return 0 if report.found else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs import (
        causal_chain,
        filter_records,
        format_records,
        summarize_records,
        validate_trace,
        write_chrome_trace,
    )
    from ..obs.trace_tools import read_trace

    try:
        records = read_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = validate_trace(records)
    if args.validate:
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        print(f"{args.file}: schema v1 OK ({len(records)} records)")
        return 0
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)

    if args.chrome is not None:
        written = write_chrome_trace(records, args.chrome)
        print(f"wrote {written} trace events to {args.chrome} "
              f"(open in chrome://tracing or Perfetto)")
        return 0

    if args.why_steering is not None:
        chain = causal_chain(records, args.why_steering)
        if not chain:
            print(f"no steering activity recorded for node "
                  f"{args.why_steering}", file=sys.stderr)
            return 1
        if args.as_json:
            print(json.dumps(chain, indent=2, sort_keys=True))
        else:
            print(format_records(chain, limit=len(chain)))
        return 0

    filtered = filter_records(records, node=args.node, kind=args.kind,
                              contains=args.contains)
    has_filter = any(value is not None
                     for value in (args.node, args.kind, args.contains))
    if args.summary or not has_filter:
        summary = summarize_records(records if not has_filter else filtered)
        if args.as_json:
            print(json.dumps({
                "total_records": summary.total_events,
                "by_kind": summary.by_kind,
                "by_node": summary.by_node,
                "first_time": summary.first_time,
                "last_time": summary.last_time,
            }, indent=2, sort_keys=True))
            return 0
        meta = records[0] if records and records[0].get("kind") == "meta" \
            else {}
        if meta:
            print(f"{args.file}: {meta.get('system')} "
                  f"seed={meta.get('seed')} mode={meta.get('mode')} "
                  f"nodes={meta.get('nodes')}")
        print(f"records: {summary.total_events} spanning "
              f"{summary.duration():g}s simulated")
        for kind, count in sorted(summary.by_kind.items()):
            print(f"  {kind:<16} {count}")
        return 0
    if args.as_json:
        print(json.dumps(filtered, indent=2, sort_keys=True))
    else:
        print(format_records(filtered, limit=args.limit))
    return 0


def _parse_durations(raw_values: Sequence[str]) -> tuple[Optional[float], dict]:
    """``--duration`` values: a plain number and/or ``system=seconds``."""
    scalar: Optional[float] = None
    per_system: dict[str, float] = {}
    for raw in raw_values:
        if "=" in raw:
            system, value = raw.split("=", 1)
            per_system[system] = float(value)
        else:
            scalar = float(raw)
    return scalar, per_system


def _cmd_campaign(args: argparse.Namespace) -> int:
    from ..campaign import (
        CampaignSpec,
        parse_axes,
        render_campaign_report,
        run_campaign,
    )

    # --axes is repeatable, including for the same key: merge repeated
    # values instead of letting the last one silently win.
    merged_axes: dict[str, str] = {}
    for key, values in args.axes:
        merged_axes[key] = (f"{merged_axes[key]},{values}"
                            if key in merged_axes else values)
    try:
        axis_kwargs = parse_axes(merged_axes)
        scalar_duration, per_system = _parse_durations(args.duration)
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    spec = CampaignSpec(
        nodes=args.nodes,
        duration=scalar_duration,
        durations=per_system,
        churn=args.churn,
        fault_seed=args.fault_seed,
        **axis_kwargs,
    )

    log = progress_logger()

    def progress(record: dict) -> None:
        # Progress goes through the always-on stderr progress logger so
        # --json keeps stdout machine-readable.
        run = record["run"]
        if record["status"] == "ok":
            summary = record["summary"]
            detail = (f"injected={summary['faults_injected']:<3} "
                      f"observed={summary['violations_observed']}")
        else:
            detail = (record["error"] or "").strip().splitlines()[-1]
        log.info("%-5s %-48s %s (%.1fs)", record["status"], run["run_id"],
                 detail, record["wall_clock_seconds"])

    try:
        report = run_campaign(spec, jobs=args.jobs, out=args.out,
                              resume=args.resume, progress=progress)
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.markdown_summary:
        summary_dir = os.path.dirname(args.markdown_summary)
        if summary_dir:
            os.makedirs(summary_dir, exist_ok=True)
        with open(args.markdown_summary, "w", encoding="utf-8") as handle:
            handle.write(render_campaign_report(report, markdown=True) + "\n")
    if args.as_json:
        print(report.to_json())
    else:
        print(render_campaign_report(report))

    status = 0
    if report.failed:
        print(f"error: {report.failed}/{report.run_count} campaign run(s) "
              f"failed", file=sys.stderr)
        status = 1
    if args.require_faults:
        missing = report.faultless_runs()
        if missing:
            print("error: fault presets requested but nothing injected in: "
                  + ", ".join(missing), file=sys.stderr)
            status = 1
    if args.fail_on_violation and report.violations_observed() > 0:
        print(f"error: campaign observed {report.violations_observed()} "
              f"safety violation(s) (--fail-on-violation)", file=sys.stderr)
        status = 1
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args.as_json)
    if args.command == "faults":
        return _cmd_faults(args.as_json)
    if args.command == "properties":
        return _cmd_properties(args.pattern, args.as_json)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
