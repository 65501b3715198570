"""Focused tests for the tcp backend's local-fallback accounting.

The contract (``AsyncioTcpBackend._deliver_over_wire``): a delivery whose
socket round-trip fails (torn connection, timeout) executes the *local*
copy so protocol semantics never depend on socket health, and each such
delivery increments ``wire_fallbacks`` — surfaced as
``outcome["wire"]["fallback_local"]``.  Deliveries to dead peers skip the
wire by design (the inherited local path records the drop) and must NOT
count as fallbacks.  A frame larger than the loopback socket buffers is no
reason to fall back either.
"""

import hashlib
import os
import time
from dataclasses import dataclass

from repro.api import Experiment
from repro.backends import make_backend, protocol_state_digest
from repro.backends.tcp import AsyncioTcpBackend
from repro.faults.types import CrashRestart
from repro.runtime import (
    Address,
    NetworkModel,
    NodeState,
    Protocol,
    make_addresses,
)


def _run(backend, *, seed=3, nodes=4, duration=60, faults=(), **options):
    experiment = (Experiment("kvstore")
                  .nodes(nodes).duration(duration).seed(seed))
    if faults:
        experiment.faults(*faults, seed=0)
    if backend != "sim":
        experiment.backend(backend, **options)
    return experiment.run()


def test_torn_sockets_fall_back_locally_with_identical_semantics(
        monkeypatch):
    def torn_link(self, src, dst):
        raise OSError("connection torn by test")

    monkeypatch.setattr(AsyncioTcpBackend, "_link_for", torn_link)
    tcp_report = _run("tcp")
    wire = tcp_report.outcome["wire"]
    # Every attempted wire delivery tore and fell back.
    assert wire["fallback_local"] > 0
    assert wire["frames_sent"] == 0
    # The local path executed the same deliveries: the run is
    # semantically identical to the sim backend under the same seed.
    sim_report = _run("sim")
    assert protocol_state_digest(tcp_report.simulator) == \
        protocol_state_digest(sim_report.simulator)
    assert tcp_report.violations_by_property() == \
        sim_report.violations_by_property()


def test_frame_timeout_counts_as_fallback(monkeypatch):
    def swallow_frame(link, message):
        return 0  # frame "written" but never sent: the read times out

    monkeypatch.setattr("repro.backends.tcp.write_frame", swallow_frame)
    report = _run("tcp", duration=20, frame_timeout=0.01)
    wire = report.outcome["wire"]
    assert wire["fallback_local"] > 0
    assert wire["frames_sent"] == 0


def test_dead_peer_deliveries_are_not_fallbacks():
    # Crash one node permanently mid-run: deliveries addressed to it take
    # the local path by design (which records the drop) and leave the
    # fallback counter untouched; live traffic keeps using the wire.
    report = _run("tcp", faults=[CrashRestart(at=10.0, target=None)])
    assert report.faults_injected() >= 1
    wire = report.outcome["wire"]
    assert wire["fallback_local"] == 0
    assert wire["frames_sent"] > 0


@dataclass
class BlobState(NodeState):
    addr: Address = None
    received: str = ""


class BlobProtocol(Protocol):
    name = "Blob"

    def initial_state(self, addr):
        return BlobState(addr=addr)

    def handle_message(self, ctx, state, message):
        state.received = hashlib.sha256(message.payload["blob"]).hexdigest()

    def handle_app(self, ctx, state, call, payload):
        ctx.send(payload["target"], "Blob", {"blob": payload["blob"]})


def test_a_frame_larger_than_the_socket_buffers_crosses_the_wire():
    # Random bytes do not compress: the frame stays over 8 MiB, far more
    # than a loopback pipe holds while nobody reads it.
    blob = os.urandom(9 * 1024 * 1024)
    sim = make_backend("tcp", BlobProtocol, NetworkModel(jitter=0.0),
                       options={"frame_timeout": 20.0})
    src, dst = make_addresses(2)
    for addr in (src, dst):
        sim.add_node(addr)
    sim.schedule_app(1.0, src, "send", {"target": dst, "blob": blob})
    started = time.monotonic()
    sim.run(until=10.0)
    assert time.monotonic() - started < sim.frame_timeout / 4
    wire = sim.wire_report()
    assert wire["fallback_local"] == 0
    assert wire["frames_sent"] == 1
    assert wire["wire_bytes"] >= 8 * 1024 * 1024
    assert sim.nodes[dst].state.received == hashlib.sha256(blob).hexdigest()
