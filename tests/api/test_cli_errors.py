"""CLI error paths: bad names exit non-zero with a message, no traceback.

Covers the ``run``, ``faults`` and ``campaign`` subcommands — a typo'd
system, scenario, preset, mode or option must produce a one-line ``error:``
diagnostic on stderr and a usage exit code, never a Python traceback.
"""

import pytest

from repro.api.cli import main


def _assert_clean_error(capsys, code, *needles):
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    assert captured.err.startswith("error:")
    for needle in needles:
        assert needle in captured.err


def test_run_unknown_system(capsys):
    code = main(["run", "nosuch"])
    _assert_clean_error(capsys, code, "unknown system 'nosuch'", "randtree")


def test_run_unknown_scenario(capsys):
    code = main(["run", "randtree", "--scenario", "nosuch"])
    _assert_clean_error(capsys, code, "no scenario 'nosuch'", "figure2")


def test_run_unknown_mode(capsys):
    code = main(["run", "randtree", "--mode", "warp"])
    _assert_clean_error(capsys, code, "unknown mode 'warp'", "steering")


def test_run_unknown_fault_preset(capsys):
    code = main(["run", "randtree", "--faults", "nosuch", "--ticks", "2"])
    _assert_clean_error(capsys, code, "unknown fault preset 'nosuch'",
                        "partition")


def test_run_unknown_option_key(capsys):
    code = main(["run", "randtree", "--ticks", "2", "--no-churn",
                 "--option", "bogus_option=1"])
    _assert_clean_error(capsys, code, "bogus_option")


@pytest.mark.parametrize("flags, message", [
    (["--max-states", "0"], "max_states must be at least 1, not 0"),
    (["--max-states", "-5"], "max_states must be at least 1, not -5"),
    (["--max-depth", "-1"], "max_depth must be at least 0, not -1"),
    (["--check-period", "0"], "check_period must be at least 1, not 0"),
])
def test_run_refuses_a_search_setting_out_of_range(capsys, flags, message):
    # Out of range, a budget once turned prediction off and exited 0.
    code = main(["run", "randtree", "--ticks", "2", "--no-churn", *flags])
    _assert_clean_error(capsys, code, message)


@pytest.mark.parametrize("flags", [
    ["--duration", "-5"], ["--duration", "0"], ["--ticks", "0"]])
def test_run_refuses_a_run_length_that_is_not_positive(capsys, flags):
    code = main(["run", "randtree", "--no-churn", *flags])
    _assert_clean_error(capsys, code, "positive duration")


def test_campaign_unknown_system(capsys):
    code = main(["campaign", "--axes", "systems=nosuch"])
    _assert_clean_error(capsys, code, "unknown system 'nosuch'")


def test_campaign_unknown_preset(capsys):
    code = main(["campaign", "--axes", "presets=nosuch"])
    _assert_clean_error(capsys, code, "unknown fault preset 'nosuch'")


def test_campaign_unknown_scenario(capsys):
    code = main(["campaign", "--axes", "systems=paxos",
                 "--axes", "scenarios=nosuch"])
    _assert_clean_error(capsys, code, "no scenario 'nosuch'")


def test_campaign_unknown_mode(capsys):
    code = main(["campaign", "--axes", "systems=randtree",
                 "--axes", "modes=warp"])
    _assert_clean_error(capsys, code, "unknown mode 'warp'")


def test_campaign_unknown_axis_key(capsys):
    code = main(["campaign", "--axes", "bogus=1"])
    _assert_clean_error(capsys, code, "unknown campaign axis 'bogus'")


def test_campaign_malformed_seed_range(capsys):
    code = main(["campaign", "--axes", "seeds=9-1"])
    _assert_clean_error(capsys, code, "seed range")


def test_campaign_axes_must_be_key_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--axes", "systems"])
    assert excinfo.value.code == 2
    assert "key=values" in capsys.readouterr().err


def test_faults_subcommand_lists_presets_cleanly(capsys):
    assert main(["faults"]) == 0
    out = capsys.readouterr().out
    assert "partition" in out and "chaos" in out
