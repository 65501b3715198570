"""The axis table: one row per campaign axis, and what derives from it."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.cli import build_parser, main
from repro.api.registry import list_systems
from repro.campaign import (
    CampaignSpec,
    RunSpec,
    build_campaign_report,
    make_record,
    parse_axes,
    run_campaign,
)
from repro.campaign.spec import AXES, axis_keys
from repro.core.controller import Mode
from repro.faults.presets import list_presets

README = Path(__file__).resolve().parents[2] / "README.md"

_PRESETS = st.sampled_from(list_presets())
_PATTERNS = st.sampled_from(["randtree.*", "chord.*", "*.agreement",
                             "kvstore.read_your_writes"])
_WORDS = st.none() | st.sampled_from(["none", "live", "default"])

#: Raw spellings each axis accepts: names, keywords, combos, sequences.
RAW_VALUES = {
    "systems": st.sampled_from([spec.name for spec in list_systems()]),
    "scenarios": _WORDS.filter(lambda word: word != "default")
    | st.sampled_from(["figure2", "partition-recovery"]),
    "fault_presets": st.none() | st.just("none") | _PRESETS
    | st.lists(_PRESETS, max_size=3)
    | st.lists(_PRESETS, min_size=1, max_size=3).map("+".join),
    "modes": st.none() | st.sampled_from(list(Mode))
    | st.sampled_from(["off", "OFF", "Steering", "isc_only", "isc-only",
                       "debug", "attack", "ATTACK"]),
    "seeds": st.integers(0, 10_000) | st.integers(0, 99).map(str),
    "properties": st.none() | st.sampled_from(["default", "none"])
    | _PATTERNS | st.lists(_PATTERNS, max_size=3).map(tuple)
    | st.lists(_PATTERNS, min_size=1, max_size=3).map("+".join),
    "workloads": st.none() | st.sampled_from(["none", "lookups", "get-put"]),
    "backends": st.none() | st.sampled_from(["sim", "tcp"]),
}


def test_the_table_names_real_fields_and_unique_keys():
    spec_fields = {f.name for f in dataclasses.fields(CampaignSpec)}
    cell_fields = {f.name for f in dataclasses.fields(RunSpec)}
    assert {axis.field for axis in AXES} <= spec_fields
    assert {axis.cell for axis in AXES} <= cell_fields
    assert set(RAW_VALUES) == {axis.field for axis in AXES}
    keys = [key for axis in AXES for key in axis.keys]
    assert len(keys) == len(set(keys))
    defaults = {f.name: f.default for f in dataclasses.fields(RunSpec)}
    for axis in AXES:
        if defaults[axis.cell] is not dataclasses.MISSING:
            assert axis.default == defaults[axis.cell], axis.field


@pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.field)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_labels_round_trip_through_normalize(axis, data):
    """A cell's label — what run ids, axes blocks and rollups show — names
    exactly that cell again, and normalizing is idempotent."""
    raw = data.draw(RAW_VALUES[axis.field])
    canonical = axis.normalize(raw)
    assert axis.normalize(canonical) == canonical
    assert axis.normalize(axis.label(canonical)) == canonical
    hash(canonical)


_PAIRS = st.dictionaries(st.sampled_from(["a", "b", "rate", "loss"]),
                         st.integers(0, 9) | st.floats(0, 1), max_size=3)


@st.composite
def _cells(draw):
    cell = {axis.cell: axis.normalize(draw(RAW_VALUES[axis.field]))
            for axis in AXES}
    return RunSpec(
        **cell,
        fault_seed=draw(st.none() | st.integers(0, 99)),
        fault_start_after=draw(st.none() | st.floats(0, 50)),
        properties_exclude=tuple(draw(st.lists(_PATTERNS, max_size=2))),
        nodes=draw(st.none() | st.integers(1, 64)),
        duration=draw(st.none() | st.floats(1, 500)),
        churn=draw(st.booleans()),
        churn_interval=draw(st.none() | st.floats(1, 100)),
        network=tuple(sorted(draw(_PAIRS).items())),
        options=tuple(sorted(draw(_PAIRS).items())),
        workload_overrides=tuple(sorted(draw(_PAIRS).items())),
    )


@settings(max_examples=150, deadline=None)
@given(_cells())
def test_runspec_round_trips_through_its_dict(run):
    again = RunSpec.from_dict(run.to_dict())
    assert again == run
    assert again.run_id == run.run_id == run.to_dict()["run_id"]
    # A JSON round trip (what the store does) changes nothing either.
    assert RunSpec.from_dict(json.loads(json.dumps(run.to_dict()))) == run


# ------------------------------------------------------------ duplicates


@pytest.mark.parametrize("axes", [
    dict(seeds=[1, 1]),
    dict(scenarios=[None, "live"]),
    dict(properties=[None, "default"]),
    dict(modes=["OFF", "off"]),
    parse_axes({"seeds": "1,1"}),          # --axes seeds=1 --axes seeds=1
    dict(fault_presets=[None, "none", ()]),
    dict(workloads=[None, "none"]),
    dict(systems=["randtree", "randtree"]),
], ids=["seeds", "scenarios", "properties", "modes", "cli-merged-seeds",
        "presets", "workloads", "systems"])
def test_values_naming_the_same_cell_expand_once(axes):
    spec = CampaignSpec(**{"systems": ["randtree"], **axes})
    (run,) = spec.expand()
    assert run.run_id.startswith("randtree:live:none:off:seed=")
    assert all(len(values) == 1 for values in spec.axes_dict().values())


def test_a_fresh_campaign_with_duplicates_equals_its_resume(tmp_path):
    def spec():
        return CampaignSpec(systems=["randtree"], seeds=[1, 1],
                            scenarios=[None, "live"], duration=20.0, nodes=3)

    store = tmp_path / "store.jsonl"
    fresh = run_campaign(spec(), jobs=1, out=store)
    assert fresh.totals["runs"] == 1
    assert len(store.read_text().splitlines()) == 1
    resumed = run_campaign(spec(), jobs=1, out=store, resume=True)
    assert resumed.timing["resumed_runs"] == 1
    assert resumed.deterministic_dict() == fresh.deterministic_dict()


def test_an_empty_axis_is_refused():
    with pytest.raises(ValueError, match="no seeds"):
        CampaignSpec(systems=["randtree"], seeds=[]).expand()


# ------------------------------------------------- derived from the table


def _records(spec):
    return spec.expand(), [
        make_record(run.to_dict(), status="ok", wall_clock_seconds=0.0,
                    summary={"violations_observed": 1})
        for run in spec.expand()]


def test_late_axes_join_the_aggregate_only_when_swept():
    plain = CampaignSpec(systems=["chord"], seeds=[1, 2])
    report = build_campaign_report(plain, *_records(plain), jobs=1)
    assert set(report.rollups) == {"system", "scenario", "preset", "mode",
                                   "seed", "properties"}
    assert "backend" not in report.runs[0] and "workload" not in report.runs[0]

    swept = CampaignSpec(systems=["chord"], backends=["sim", "tcp"],
                         workloads=["lookups"])
    report = build_campaign_report(swept, *_records(swept), jobs=1)
    assert set(report.rollups["backend"]) == {"sim", "tcp"}
    assert report.rollups["workload"]["lookups"]["runs"] == 2
    assert report.rollups["workload"]["lookups"]["violations_observed"] == 2
    by_id = {row["run_id"]: row for row in report.runs}
    assert by_id["chord:live:none:off:seed=0:wl=lookups:backend=tcp"][
        "backend"] == "tcp"


def test_help_and_errors_list_every_key_and_alias(capsys):
    keys = [key for axis in AXES for key in axis.keys]
    assert all(key in axis_keys() for key in keys)
    assert main(["campaign", "--axes", "bogus=1"]) == 2
    error = capsys.readouterr().err
    assert all(key in error for key in keys), error
    campaign = build_parser()._subparsers._group_actions[0].choices["campaign"]
    help_text = campaign.format_help()
    for axis in AXES:
        assert f"{axis.keys[0]}=" in help_text, axis.field


def test_readme_axis_table_has_a_row_per_axis():
    rows = re.findall(r"^\| `(\w+)=` +\|", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE)
    assert rows == [axis.keys[0] for axis in AXES]
