"""Integration tests for the Bullet' download workload (Figure 17)."""

from repro.api import Experiment


def _download(mode="off", *, duration, **options):
    return (Experiment("bulletprime").scenario("download").nodes(8)
            .duration(duration).mode(mode).seed(4)
            .options(block_count=16, mesh_seed=4, **options).run())


def test_download_completes_for_all_nodes():
    outcome = _download(duration=200.0).outcome
    assert outcome["nodes_completed"] == outcome["total_nodes"]
    assert outcome["completion_fraction"] == 1.0
    assert max(outcome["completion_times"].values()) <= 200.0


def test_crystalball_overhead_is_moderate():
    baseline = _download(duration=300.0).outcome
    monitored = _download("debug", duration=300.0).outcome
    assert monitored["nodes_completed"] == monitored["total_nodes"]
    assert monitored["checkpoint_bytes"] > 0
    # The checkpointing control plane must not blow up the download time.
    assert (max(monitored["completion_times"].values())
            <= max(baseline["completion_times"].values()) * 2.0)


def test_buggy_shadow_map_can_delay_or_block_downloads():
    buggy = _download(duration=200.0, fix_shadow_map=False).outcome
    fixed = _download(duration=200.0, fix_shadow_map=True).outcome
    assert fixed["nodes_completed"] >= buggy["nodes_completed"]
