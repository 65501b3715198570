"""``RECORD_FIELDS`` against what runs really write.

Three small seeded runs between them emit every record kind, every trace
validates clean, and a trace does not depend on what the process ran
before it.
"""

import pytest

from repro.api import Experiment
from repro.obs import (
    RECORD_KINDS,
    MemoryTracer,
    strip_wall_fields,
    validate_trace,
)
from repro.properties import eventually


def steering_run():
    return (Experiment("chord").nodes(8).duration(60).seed(1)
            .crystalball("steering"))


def fault_run():
    return (Experiment("randtree").nodes(4).duration(40).seed(2).mode("off")
            .faults("partition"))


def liveness_run():
    never = eventually("test.never_holds", lambda state: False, within=10.0)
    return (Experiment("randtree").nodes(4).duration(30).seed(1).mode("off")
            .properties(never))


def traced(experiment):
    tracer = MemoryTracer()
    experiment.trace(tracer).run()
    return tracer.records


@pytest.fixture(scope="module")
def traces():
    return {run.__name__: traced(run())
            for run in (steering_run, fault_run, liveness_run)}


def test_three_runs_emit_exactly_the_kinds_of_the_table(traces):
    kinds = {record["kind"] for records in traces.values()
             for record in records}
    assert kinds == set(RECORD_KINDS)
    # The one record no per-node run writes: a system-wide violation.
    assert any(record["kind"] == "violation" and record["node"] is None
               for record in traces["liveness_run"])


@pytest.mark.parametrize("name", ["steering_run", "fault_run", "liveness_run"])
def test_every_trace_a_run_writes_validates_clean(traces, name):
    assert validate_trace(traces[name]) == []


def test_a_steering_trace_does_not_depend_on_process_history(traces):
    """Filters are numbered where they are installed and messages where
    they are sent, not from a counter the whole process shares: a rerun
    records the same ``filter#N`` and the same ``msg`` ids."""
    first = traces["steering_run"]
    assert any(record["kind"] == "filter_install" for record in first)
    assert strip_wall_fields(traced(steering_run())) == \
        strip_wall_fields(first)
