"""The paper-fidelity scorecard: one row type, one renderer, one command.

Each paper bench reports its claims as :class:`Row` values through the
``scorecard`` fixture of ``conftest.py``; a row's ``holds`` is the predicate
the bench asserts.  ``PYTHONPATH=src python -m benchmarks.scorecard`` times
the tier-1 suite, runs the nine benches, rewrites ``SCORECARD.md`` at the
repository root and exits non-zero when a claim stopped holding or a test
failed.  The tier-1 tally and the rows whose unit is ``s`` carry wall-clock
times; every other value reproduces from the seeds.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

import pytest

from repro.analysis.reporting import format_markdown_table

ROOT = Path(__file__).resolve().parent.parent
#: The paper benches, in the order of the paper's evaluation.
BENCHES = tuple(f"benchmarks/bench_{name}.py" for name in (
    "table1_bugs_found", "fig12_exhaustive_time", "sec53_macemc_depths",
    "sec541_randtree_steering", "fig14_paxos_steering", "fig15_16_memory",
    "fig17_bullet_overhead", "sec55_checkpoint_overhead",
    "ablation_consequence_vs_bfs"))
TIER1 = ("-m", "pytest", "-x", "-q")


class Row(NamedTuple):
    """One checkable claim of the paper against this reproduction."""

    claim: str      #: stable id, ``<bench>.<what>``
    source: str     #: the paper's figure, table or section
    quantity: str   #: what is measured, with the bound ``holds`` applies
    paper: Any      #: the paper's value (``None``: the paper gives none)
    repo: Any       #: this repository's value
    unit: str       #: ``s`` marks a wall-clock time
    holds: bool     #: the bench's assertion

    def cells(self) -> list[str]:
        paper, repo = ("—" if value is None
                       else ("no", "yes")[value] if isinstance(value, bool)
                       else f"{value:g}" if isinstance(value, float)
                       else str(value) for value in (self.paper, self.repo))
        return [f"`{self.claim}`", self.source, self.quantity, paper, repo,
                self.unit, "holds" if self.holds else "**FAILS**"]


class _Collector:
    """Pytest plugin: the rows and outcome of every bench test, by file."""

    def __init__(self) -> None:
        self.tests: dict[str, list[tuple[str, str]]] = {}
        self.rows: list[Row] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.when != "call":
            return
        path, _, test = report.nodeid.partition("::")
        self.tests.setdefault(path, []).append((test, report.outcome))
        self.rows += [value for name, value in report.user_properties
                      if name == "scorecard"]


def _tier1() -> dict[str, Any]:
    """Run the tier-1 suite in a fresh interpreter: its exit code, pytest's
    own tally line (counts and wall seconds) and every expected failure."""
    done = subprocess.run([sys.executable, *TIER1, "-rx", "-p", "no:cacheprovider"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    return {
        "exit": done.returncode,
        "tally": lines[-1].strip("= ") if lines else "no output",
        "xfailed": [line.removeprefix("XFAIL ") for line in lines
                    if line.startswith("XFAIL ")],
    }


def _scale_section() -> list[str]:
    record = json.loads((ROOT / "BENCH_scale.json").read_text())
    rows = [[f"`{label}`", cell["nodes"],
             "default" if cell.get("properties_on") else "none",
             cell["checking_period"], cell["events_per_sec"],
             cell["control_bytes_per_node"], cell["peak_rss_mb"]]
            for label, cell in record["configs"].items()]
    return [
        "## 4. Scale run (not a paper claim, nightly only)",
        "",
        "Recorded in `BENCH_scale.json` by `PYTHONPATH=src python -m pytest "
        "benchmarks/bench_scale.py -q` (about 3 min; this command does not "
        "rerun it).  The events/s headline is taken with no live "
        "properties; `scaled_256_properties_on` is the same scaled "
        "configuration with the default properties checked after every "
        "event.",
        "",
        format_markdown_table(
            ["config", "nodes", "live properties", "checking period",
             "events/s", "control B/node", "peak RSS MiB"], rows),
        "",
        f"Scaled over baseline: {record['speedup_256']}x at 256 nodes, "
        f"{record['speedup_1000']}x at 1000.  Properties on keep "
        f"{record['properties_on_ratio_256']} of the `scaled_256` events/s "
        f"(floor {record['min_properties_on_ratio_256']}).",
    ]


def render(collector: _Collector, tier1: dict[str, Any]) -> str:
    rows = collector.rows
    outcomes = [outcome for tests in collector.tests.values()
                for _, outcome in tests]
    lines = [
        "# SCORECARD — the paper's claims against this reproduction",
        "",
        "Generated by `PYTHONPATH=src python -m benchmarks.scorecard`; do "
        "not edit by hand.  Every value reproduces from the seeds except "
        "the tier-1 seconds and the rows whose unit is `s`.",
        "",
        "## 1. Quick summary",
        "",
        f"- {sum(row.holds for row in rows)} of {len(rows)} claims hold; "
        f"{outcomes.count('passed')} of {len(outcomes)} bench tests passed.",
        f"- Tier-1 (`PYTHONPATH=src python {' '.join(TIER1)}`): "
        f"{tier1['tally']}, exit code {tier1['exit']}.",
        f"- Python {platform.python_version()}, {os.cpu_count()} CPUs.",
        "",
        format_markdown_table(
            ["claim", "source", "quantity", "paper", "repo", "unit",
             "verdict"], [row.cells() for row in rows]),
        "",
        "## 2. Per figure: command, sizes, artifacts",
    ]
    for path, tests in collector.tests.items():
        module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
        paper, repo = module.SIZES
        ran = ", ".join(f"`{test}` {outcome}" for test, outcome in tests)
        lines += [
            "",
            f"### {module.__doc__.splitlines()[0]}",
            "",
            f"- Command: `PYTHONPATH=src python -m pytest {path} -q`",
            f"- Paper: {paper}",
            f"- Here: {repo}",
            f"- Artifacts: `{path}` (inputs, predicates); tests {ran}.",
        ]
    lines += ["", "## 3. Known deviations", "",
              "Tier-1 tests marked `xfail(strict=True)`: each pins a "
              "behaviour known to be wrong until it is fixed.", ""]
    lines += [f"- `{test}` — {reason}"
              for test, _, reason in (line.partition(" - ")
                                      for line in tier1["xfailed"])] or ["- none"]
    lines += ["", *_scale_section(), ""]
    return "\n".join(lines)


def main() -> int:
    tier1 = _tier1()
    collector = _Collector()
    bench_exit = pytest.main([*BENCHES, "-q", "-p", "no:cacheprovider"],
                             plugins=[collector])
    (ROOT / "SCORECARD.md").write_text(render(collector, tier1),
                                       encoding="utf-8")
    return int(bool(bench_exit or tier1["exit"]))


if __name__ == "__main__":
    sys.exit(main())
