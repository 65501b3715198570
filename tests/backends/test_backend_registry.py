"""Tests for the execution-backend registry and option validation."""

import os
import subprocess
import sys

import pytest

from repro.backends import (
    AsyncioTcpBackend,
    ExecutionBackend,
    backend_names,
    get_backend,
    make_backend,
    register_backend,
)
from repro.runtime import NetworkModel, Simulator


class _Null:
    def initial_state(self, addr):
        return None


def test_builtin_backends_registered():
    assert backend_names() == ["sim", "tcp"]
    assert get_backend("sim") is Simulator
    assert get_backend("tcp") is AsyncioTcpBackend


def test_unknown_backend_rejected_with_known_names():
    with pytest.raises(ValueError, match="sim, tcp"):
        get_backend("grpc")


def test_register_backend_is_idempotent_but_guards_conflicts():
    assert register_backend("sim", Simulator) is Simulator
    with pytest.raises(ValueError, match="already registered"):
        register_backend("sim", AsyncioTcpBackend)


def test_simulator_satisfies_the_backend_protocol():
    sim = Simulator(_Null, NetworkModel(), seed=0)
    assert isinstance(sim, ExecutionBackend)


def test_sim_backend_rejects_any_option():
    with pytest.raises(ValueError, match="no options"):
        make_backend("sim", _Null, options={"host": "127.0.0.1"})


def test_tcp_backend_rejects_unknown_options():
    with pytest.raises(ValueError, match="unknown option"):
        make_backend("tcp", _Null, options={"prot": 99})


def test_tcp_backend_accepts_its_options():
    backend = make_backend("tcp", _Null, seed=4,
                           options={"host": "127.0.0.1", "port_base": 0,
                                    "frame_timeout": 5.0})
    assert backend.host == "127.0.0.1"
    assert backend.frame_timeout == 5.0


def test_make_backend_builds_plain_simulator_for_sim():
    backend = make_backend("sim", _Null, tick_interval=7.0)
    assert isinstance(backend, Simulator)
    assert backend.tick_interval == 7.0


def test_importing_repro_loads_no_event_loop():
    # The tcp backend ships frames over blocking sockets: nothing it
    # imports at ``import repro`` time needs asyncio.
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, repro; print('asyncio' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
