"""Scale smoke tests: large workload-driven deployments under sampled
checking must complete, and the control plane must stay flat per node.

The 1000-node run is ``benchmarks/bench_scale.py``'s ``scaled_1000``
cell, which asserts the same; here the 64-vs-256 comparison runs.
"""

from repro.api import Experiment
from repro.core.controller import CheckingPolicy
from repro.mc import SearchBudget


def _scaled_chord(n, duration=60.0, seed=1):
    """One run of ``bench_scale.py``'s scaled configuration: sampled
    checking (~16 on-duty controllers), delta checkpoints, UDP checkpoint
    requests, a per-node-constant lookup load, no live properties."""
    return (Experiment("chord")
            .nodes(n)
            .duration(duration)
            .churn(False)
            .properties()
            .workload("lookups", rate=2.0 * n, burst=max(4, n // 16),
                      start=20.0)
            .crystalball("debug",
                         budget=SearchBudget(max_states=8, max_depth=2),
                         checking=CheckingPolicy(period=max(1, n // 16),
                                                 seed=0),
                         delta_checkpoints=True,
                         udp_checkpoint_requests=True)
            .metrics()
            .max_events(4_000_000)
            .seed(seed)
            .run())


def _per_node_control_bytes(report):
    return report.checkpoint_bytes() / len(report.nodes)


def test_scaled_runs_complete_and_control_bytes_stay_flat():
    small, large = _scaled_chord(64), _scaled_chord(256)
    for report in (small, large):
        # The workload ran to completion: requests flowed and (nearly)
        # all of them came back.
        assert report.requests_injected() > 0
        assert report.requests_completed() > 0.9 * report.requests_injected()
        assert report.metrics["counters"]["runtime.messages_delivered"] > 0
        # Deep checking still happened under sampling.
        assert report.total("snapshots_collected") > 0
    # Quadrupling the deployment must not grow the per-node control
    # plane: sampled checking keeps the number of on-duty controllers
    # proportional to n/period, so the per-node cost stays flat.
    assert _per_node_control_bytes(large) \
        <= 1.5 * _per_node_control_bytes(small)
