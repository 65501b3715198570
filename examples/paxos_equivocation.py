#!/usr/bin/env python3
"""Byzantine equivocation against Paxos: hunt, minimize, replay, steer.

The benign nemesis (``repro.faults`` partitions, crashes, delays) can slow
Paxos down but never make two nodes *learn different values* — agreement
is safe under crash faults.  A byzantine acceptor is another matter: an
``EquivocatingNode`` that reports a fabricated higher-numbered accepted
value in its PROMISE tricks the next leader (via Paxos's own
value-selection rule) into proposing the poison, and the deployment
chooses two different values.

This walkthrough drives the full ``repro.attack`` pipeline:

1. **Hunt** — seeded equivocation schedules against the registered
   ``paxos.agreement`` property until one violates it.
2. **Minimize** — greedy delta debugging shrinks the violating schedule
   (drop steps, shrink windows) with a full re-execution per proposal.
3. **Replay** — the minimized trace re-executes to the *same* violation
   (simulated time + state digest): the counterexample is an artifact,
   not an anecdote.
4. **Steer** — the same minimized schedule runs again with CrystalBall
   execution steering enabled, to see how much of the damage the
   controllers absorb.

Run with::

    python examples/paxos_equivocation.py
"""

from __future__ import annotations

from repro.api import Experiment
from repro.attack import AttackConfig, find_attack

SEED = 0


def describe(result) -> None:
    report = result.report
    print(f"\n--- attack report: {report.property_id} on {report.system} ---")
    if not report.found:
        print(f"no counterexample in {report.attempts} attempt(s) "
              f"({report.executions} seeded runs)")
        return
    print(f"FALSIFIED after {report.attempts} attempt(s), "
          f"{report.executions} seeded runs total "
          f"(attack seed {report.attack_seed})")
    print(f"trace minimized {report.original_steps} -> "
          f"{report.minimized_steps} step(s) via {report.reductions}")
    for index, step in enumerate(report.minimized_schedule.steps):
        window = "-" if step.duration is None else f"{step.duration:.1f}s"
        print(f"  step {index}: t={step.at:.1f}s {step.name} "
              f"(window {window})")
    violation = report.violation
    print(f"violation: t={violation['sim_time']:.3f}s  "
          f"{violation['detail']}")
    print(f"state digest: {violation['state_digest']}  "
          f"replay verified: {report.replay['verified']}")


def steer(result) -> None:
    """Re-run the minimized byzantine schedule under execution steering."""
    schedule = result.schedule
    report = (Experiment("paxos")
              .mode("steering")
              .seed(SEED)
              .properties("paxos.agreement")
              .faults(*schedule.steps, seed=0, start_after=0.0)
              .run())
    records = [record for record in report.live_monitor.records
               if record.property_id == "paxos.agreement"]
    accounting = report.accounting()
    print("\n--- same minimized schedule, CrystalBall steering ON ---")
    print(f"predicted: {accounting['violations_predicted']}  "
          f"steered: {accounting['steering_modified_behavior']}  "
          f"isc blocks: {accounting['isc_blocks']}")
    baseline = result.report.violation_count
    print(f"agreement violations: {baseline} (off) -> {len(records)} "
          f"(steering)")
    if records:
        print("steering narrowed but did not eliminate the byzantine "
              "attack: equivocation forges protocol state that "
              "crash-fault checkpoints cannot fully reconcile.")
    elif accounting["violations_predicted"] == 0:
        print("no violation under steering — but with zero predictions "
              "the credit goes to divergence, not foresight: the "
              "controllers' checkpoint traffic re-times the round and "
              "the time-pinned equivocation window misses its target.")
    else:
        print("steering predicted the violation and filtered the attack.")


def main() -> None:
    print("Hunting a counterexample to paxos.agreement "
          "(byzantine equivocation) ...")
    result = find_attack(AttackConfig(
        system="paxos",
        property_id="paxos.agreement",
        faults=("equivocation",),
        seed=SEED,
    ))
    describe(result)
    if result.found:
        steer(result)


if __name__ == "__main__":
    main()
