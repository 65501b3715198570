"""Unified experiment API: the single front door to the reproduction.

* :func:`register_system` / :func:`get_system` / :func:`list_systems` — the
  plugin registry under which the six bundled systems self-register their
  protocol factory, safety properties, transition config and named
  scenarios;
* :class:`Experiment` — the fluent builder that is the record of a live run,
  with scenarios folded in as presets;
* :class:`RunReport` — the one structured, JSON-serializable result type;
* ``python -m repro`` — the command-line interface over all of the above.
"""

from .experiment import Experiment, parse_mode, run_search_scenario
from .registry import (
    ScenarioSpec,
    SystemSpec,
    get_system,
    list_systems,
    register_system,
    unregister_system,
)
from .report import NodeReport, RunReport

__all__ = [
    "Experiment",
    "parse_mode",
    "run_search_scenario",
    "ScenarioSpec",
    "SystemSpec",
    "get_system",
    "list_systems",
    "register_system",
    "unregister_system",
    "NodeReport",
    "RunReport",
]
