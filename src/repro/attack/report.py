"""The attack-report artifact: trace JSON + rendered markdown.

Shaped after the Tamarin falsified-lemma reports in the related softsec
set (`RMAP_TAMARIN_REPORT.md`): a report states *which property* was
attacked, *whether* it was falsified, the exact *reproduction command*,
and the minimized counterexample trace with enough detail to interpret
the attack without re-running it.  The JSON side is the machine-readable
twin the CI smoke job and campaign aggregates consume.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from .schedule import AttackSchedule

__all__ = ["AttackReport"]


def _fmt_time(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}s"


@dataclass
class AttackReport:
    """Structured outcome of one falsification hunt.

    Everything needed to re-run the attack is inside: the minimized
    schedule (absolute times + pinned RNG keys), the run seed, and the
    CLI invocation.  ``replay`` records the determinism check — the
    minimized schedule re-executed to the same violation and digests.
    """

    system: str
    property_id: str
    found: bool
    mode: str = "off"
    seed: int = 0
    #: Attack-candidate seed of the violating schedule (None = no attack).
    attack_seed: Optional[int] = None
    nodes: int = 0
    duration: float = 0.0
    attempts: int = 0
    #: Total seeded runs spent: search + minimization + replay check.
    executions: int = 0
    invocation: str = ""
    original_schedule: Optional[AttackSchedule] = None
    minimized_schedule: Optional[AttackSchedule] = None
    #: Accepted minimization reductions, in order.
    reductions: list[str] = field(default_factory=list)
    #: First violation record of the minimized run (ViolationRecord dict).
    violation: Optional[dict[str, Any]] = None
    #: Violations observed in the minimized run.
    violation_count: int = 0
    #: Whole-system protocol state digest at the end of the minimized run.
    final_state_digest: Optional[str] = None
    #: Determinism check: {"verified", "sim_time", "state_digest",
    #: "final_state_digest"} from re-executing the minimized schedule.
    replay: Optional[dict[str, Any]] = None
    metrics: dict[str, Any] = field(default_factory=dict)

    # -- sizes ----------------------------------------------------------------

    @property
    def original_steps(self) -> int:
        return len(self.original_schedule) if self.original_schedule else 0

    @property
    def minimized_steps(self) -> int:
        return len(self.minimized_schedule) if self.minimized_schedule else 0

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "property": self.property_id,
            "found": self.found,
            "mode": self.mode,
            "seed": self.seed,
            "attack_seed": self.attack_seed,
            "nodes": self.nodes,
            "duration": self.duration,
            "attempts": self.attempts,
            "executions": self.executions,
            "invocation": self.invocation,
            "original_steps": self.original_steps,
            "minimized_steps": self.minimized_steps,
            "reductions": list(self.reductions),
            "trace": (
                self.minimized_schedule.to_dict()
                if self.minimized_schedule is not None
                else None
            ),
            "original_trace": (
                self.original_schedule.to_dict()
                if self.original_schedule is not None
                else None
            ),
            "violation": self.violation,
            "violation_count": self.violation_count,
            "final_state_digest": self.final_state_digest,
            "replay": self.replay,
            "metrics": dict(self.metrics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- markdown rendering ----------------------------------------------------

    def to_markdown(self) -> str:
        lines: list[str] = []
        verdict = "FALSIFIED" if self.found else "no counterexample found"
        lines.append(f"# Attack Report — {self.system} · `{self.property_id}`")
        lines.append("")
        if self.found:
            lines.append(
                f"The byzantine adversary **falsified** `{self.property_id}` "
                f"on `{self.system}` (mode `{self.mode}`, {self.nodes} nodes, "
                f"{self.duration:g}s simulated). The violating schedule was "
                f"minimized from {self.original_steps} to "
                f"{self.minimized_steps} step(s); the minimized trace replays "
                f"deterministically to the same violation and state digest."
            )
        else:
            lines.append(
                f"No counterexample to `{self.property_id}` was found on "
                f"`{self.system}` within {self.attempts} seeded attempt(s) "
                f"(mode `{self.mode}`, {self.nodes} nodes, "
                f"{self.duration:g}s simulated)."
            )
        lines.append("")
        lines.append("## Reproduction")
        lines.append("")
        lines.append("```bash")
        lines.append(self.invocation)
        lines.append("```")
        lines.append("")
        lines.append("## High-level results")
        lines.append("")
        lines.append("| property | result | attempts | runs | trace | replay |")
        lines.append("|---|---|---|---|---|---|")
        replay_cell = "-"
        if self.replay is not None:
            replay_cell = "verified" if self.replay.get("verified") else "MISMATCH"
        trace_cell = (
            f"{self.original_steps} → {self.minimized_steps} steps"
            if self.found
            else "-"
        )
        lines.append(
            f"| `{self.property_id}` | **{verdict}** | {self.attempts} "
            f"| {self.executions} | {trace_cell} | {replay_cell} |"
        )
        lines.append("")
        if self.found and self.minimized_schedule is not None:
            lines.append("## Minimized attack trace")
            lines.append("")
            lines.append("| # | sim time | fault | window | parameters |")
            lines.append("|---|---|---|---|---|")
            for index, step in enumerate(self.minimized_schedule.steps):
                params = (
                    ", ".join(
                        f"{key}={value}"
                        for key, value in sorted(step.params().items())
                        if value is not None
                    )
                    or "-"
                )
                lines.append(
                    f"| {index} | {_fmt_time(step.at)} | `{step.name}` "
                    f"| {_fmt_time(step.duration)} | {params} |"
                )
            lines.append("")
            if self.violation is not None:
                lines.append("### Violation")
                lines.append("")
                node = self.violation.get("node") or "global"
                lines.append(
                    f"- **property:** `{self.violation.get('property_id')}` "
                    f"(severity {self.violation.get('severity')})"
                )
                lines.append(
                    f"- **at:** t={_fmt_time(self.violation.get('sim_time'))} "
                    f"on {node}"
                )
                lines.append(f"- **detail:** {self.violation.get('detail')}")
                lines.append(
                    f"- **state digest:** `{self.violation.get('state_digest')}`"
                )
                lines.append(
                    f"- **final protocol digest:** `{self.final_state_digest}`"
                )
                lines.append("")
            if self.reductions:
                lines.append(
                    f"Minimization accepted {len(self.reductions)} "
                    f"reduction(s): {', '.join(self.reductions)}."
                )
                lines.append("")
        lines.append("## Interpretation")
        lines.append("")
        if self.found:
            lines.append(
                "A falsified property means the trace above is a concrete "
                "byzantine execution — not an over-approximation — in which "
                "the system reaches a state violating the property. Every "
                "step that remains survived delta debugging: removing any "
                "one of them makes the violation disappear. Re-run the "
                "reproduction command to replay it; the pinned per-step RNG "
                "keys make the schedule bit-reproducible."
            )
        else:
            lines.append(
                "The search is falsification, not verification: exhausting "
                "the seeded attempts without a counterexample does not prove "
                "the property holds — it bounds the adversary tried. Raise "
                "`--attempts`, widen `--faults`, or lengthen `--duration` "
                "to strengthen the attack."
            )
        lines.append("")
        return "\n".join(lines)

    # -- artifacts -------------------------------------------------------------

    def artifact_stem(self) -> str:
        return f"attack_{self.system}_{self.property_id.replace('.', '_')}"

    def write(self, outdir: str) -> tuple[str, str]:
        """Write ``<stem>.json`` and ``<stem>.md`` under ``outdir``."""
        os.makedirs(outdir, exist_ok=True)
        stem = os.path.join(outdir, self.artifact_stem())
        json_path = f"{stem}.json"
        md_path = f"{stem}.md"
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        with open(md_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_markdown())
        return json_path, md_path
