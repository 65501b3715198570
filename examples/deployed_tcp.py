#!/usr/bin/env python3
"""Deployed mode: the same CrystalBall run over real TCP sockets.

The same seeded RandTree deployment is executed twice — once on the
default ``sim`` backend (simulated transport) and once on the ``tcp``
backend, where every service and control-plane message crosses a real
loopback socket as a length-prefixed compact-bytes frame before its
handler runs.  Checkpoint responses (cloned node states) genuinely travel
over the wire.  The demo then verifies the deployed-mode equivalence the
backend API guarantees: identical property violations and identical
final protocol-state digests.

Each run is one fluent :class:`repro.api.Experiment`; the tcp run is also
available as ``python -m repro run randtree --backend tcp``.

Run with::

    python examples/deployed_tcp.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.api import Experiment
from repro.backends import protocol_state_digest


def run_backend(backend: str, *, nodes: int = 5, duration: float = 120.0,
                seed: int = 3):
    experiment = (Experiment("randtree")
                  .nodes(nodes)
                  .duration(duration)
                  .crystalball("debug")
                  .seed(seed))
    if backend != "sim":
        experiment.backend(backend)
    return experiment.run()


def main() -> None:
    print("Running the seeded RandTree deployment on both backends ...")
    reports = {backend: run_backend(backend) for backend in ("sim", "tcp")}

    rows = []
    for backend, report in reports.items():
        wire = report.outcome.get("wire", {})
        rows.append([
            backend,
            sum(report.violations_by_property().values()),
            report.total_predicted(),
            wire.get("frames_sent", "-"),
            wire.get("control_frames", "-"),
            wire.get("wire_bytes", "-"),
            protocol_state_digest(report.simulator)[:12],
        ])
    print()
    print(format_table(
        ["backend", "violations", "predicted", "frames", "control frames",
         "wire bytes", "state digest"],
        rows,
        title="sim vs tcp: one seed, two transports",
    ))

    sim_report, tcp_report = reports["sim"], reports["tcp"]
    assert (sim_report.violations_by_property()
            == tcp_report.violations_by_property()), "violation sets differ"
    assert (protocol_state_digest(sim_report.simulator)
            == protocol_state_digest(tcp_report.simulator)), "states diverged"

    wire = tcp_report.outcome["wire"]
    checkpoint_frames = {mtype: count
                         for mtype, count in wire["by_mtype"].items()
                         if mtype.startswith("_cb_")}
    print("\nEquivalence holds: the tcp run shipped "
          f"{wire['frames_sent']} frames ({wire['wire_bytes']} bytes) over "
          "real sockets — control plane included "
          f"({checkpoint_frames}) — and reproduced the exact violations "
          "and final states of the simulated run.")


if __name__ == "__main__":
    main()
