"""Tests for exhaustive search, random walks and search bookkeeping."""

from repro.core import consequence_prediction
from repro.mc import (
    SearchBudget,
    SearchStats,
    TransitionConfig,
    TransitionSystem,
    find_errors,
    random_walk_search,
)
from repro.systems.randtree import ALL_PROPERTIES, Figure2Scenario


def _system(scenario, **config):
    defaults = dict(enable_resets=True, max_resets_per_node=1)
    defaults.update(config)
    return TransitionSystem(scenario.protocol, TransitionConfig(**defaults))


def test_budget_limits_states():
    budget = SearchBudget(max_states=5)
    stats = SearchStats()
    assert not budget.exhausted(stats)
    stats.states_visited = 5
    assert budget.exhausted(stats)


def test_stats_merge_adds_work_counters_and_leaves_clock_and_memory():
    first = SearchStats(states_visited=3, states_enqueued=4,
                        transitions_applied=9, duplicate_states=5,
                        internal_actions_skipped=2, max_depth_reached=1,
                        states_by_depth={0: 1, 1: 2}, elapsed_seconds=7.0,
                        peak_memory_bytes=100, frontier_bytes=40,
                        explored_hash_bytes=24)
    first.note_visited_hash(11)
    second = SearchStats(states_visited=2, states_enqueued=1,
                         transitions_applied=3, duplicate_states=2,
                         internal_actions_skipped=1, max_depth_reached=2,
                         states_by_depth={1: 1, 2: 1})
    second.note_visited_hash(22)

    total = SearchStats()
    total.merge(first)
    total.merge(second)
    assert (total.states_visited, total.states_enqueued,
            total.transitions_applied, total.duplicate_states,
            total.internal_actions_skipped) == (5, 5, 12, 7, 3)
    assert total.max_depth_reached == 2
    assert total.states_by_depth == {0: 1, 1: 3, 2: 1}
    assert total.visited_hashes == {11, 22}
    assert (total.elapsed_seconds, total.peak_memory_bytes,
            total.frontier_bytes, total.explored_hash_bytes) == (0.0, 0, 0, 0)
    untouched = SearchStats()
    untouched.merge(SearchStats(states_visited=1))
    assert untouched.visited_hashes is None


def test_budget_depth_allowed():
    budget = SearchBudget(max_depth=3)
    assert budget.depth_allowed(3)
    assert not budget.depth_allowed(4)
    assert SearchBudget().depth_allowed(1000)


def test_exhaustive_respects_state_budget():
    scenario = Figure2Scenario.build()
    result = find_errors(_system(scenario), scenario.global_state(),
                         ALL_PROPERTIES, SearchBudget(max_states=50))
    assert result.stats.states_visited <= 50


def test_exhaustive_finds_violation_with_enough_budget():
    scenario = Figure2Scenario.build()
    result = find_errors(_system(scenario), scenario.global_state(),
                         ALL_PROPERTIES,
                         SearchBudget(max_states=4000, max_depth=4))
    assert result.stats.max_depth_reached >= 2
    # Shallow depths already expose the "reset node re-joins itself" family.
    assert result.found_violation


def test_exhaustive_visits_no_duplicate_states():
    scenario = Figure2Scenario.build()
    result = find_errors(_system(scenario, enable_resets=False),
                         scenario.global_state(), ALL_PROPERTIES,
                         SearchBudget(max_states=500, max_depth=6))
    assert result.stats.states_visited <= 500
    assert result.stats.states_visited > 0


def test_stop_at_first_violation_short_circuits():
    scenario = Figure2Scenario.build()
    full = find_errors(_system(scenario), scenario.global_state(),
                       ALL_PROPERTIES, SearchBudget(max_states=3000, max_depth=4))
    early = find_errors(_system(scenario), scenario.global_state(),
                        ALL_PROPERTIES,
                        SearchBudget(max_states=3000, max_depth=4,
                                     stop_at_first_violation=True))
    assert early.stats.states_visited <= full.stats.states_visited


def test_consequence_prediction_skips_explored_local_actions():
    scenario = Figure2Scenario.build()
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=1500, max_depth=6))
    assert result.stats.internal_actions_skipped > 0


def test_consequence_prediction_visits_fewer_states_than_bfs_at_same_depth():
    scenario = Figure2Scenario.build()
    budget = SearchBudget(max_states=100000, max_depth=4)
    cp = consequence_prediction(_system(scenario), scenario.global_state(),
                                ALL_PROPERTIES, budget)
    bfs = find_errors(_system(scenario), scenario.global_state(),
                      ALL_PROPERTIES, budget)
    assert cp.stats.states_visited < bfs.stats.states_visited


def test_consequence_prediction_finds_figure2_bug():
    scenario = Figure2Scenario.build()
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=8000, max_depth=9))
    assert "randtree.children_siblings_disjoint" in result.unique_property_names()
    violation = min((v for v in result.violations
                     if v.violation.property_name == "randtree.children_siblings_disjoint"),
                    key=lambda v: v.depth)
    assert violation.path  # a real event path, suitable for steering/replay


def test_fixed_protocol_no_longer_predicts_the_figure2_bug():
    scenario = Figure2Scenario.build(fixed=True)
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=4000, max_depth=8))
    names = result.unique_property_names()
    assert "randtree.children_siblings_disjoint" not in names
    assert "randtree.recovery_timer_running" not in names


def test_random_walk_reaches_depth_and_reports():
    scenario = Figure2Scenario.build()
    result = random_walk_search(_system(scenario), scenario.global_state(),
                                ALL_PROPERTIES, walks=10, walk_depth=12, seed=3)
    assert result.stats.max_depth_reached > 4
    assert result.stats.transitions_applied > 0


def test_search_stats_memory_accounting():
    scenario = Figure2Scenario.build()
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=300, max_depth=5))
    assert result.stats.peak_memory_bytes > 0
    assert result.stats.memory_per_state() > 0
    assert sum(result.stats.states_by_depth.values()) == result.stats.states_visited
