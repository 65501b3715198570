"""Global property registry: registration, lookup, pattern selection."""

import pytest

from repro.properties import (
    SafetyProperty,
    all_properties,
    get_property,
    register_property,
    resolve_properties,
    select_properties,
    unregister_property,
)


def _prop(name):
    return SafetyProperty(name, lambda gs: [], f"test property {name}")


def test_builtin_systems_self_register_their_namespaces():
    names = {prop.name for prop in all_properties()}
    for namespace in ("randtree", "chord", "paxos", "bullet"):
        assert any(name.startswith(namespace + ".") for name in names), (
            f"no {namespace}.* properties registered")


def test_namespace_selection_preserves_check_order():
    from repro.systems.randtree.properties import ALL_PROPERTIES

    selected = select_properties("randtree.*")
    safety = [prop for prop in selected if prop.kind == "safety"]
    assert safety == ALL_PROPERTIES, (
        "namespace selection must reproduce the historical check order")


def test_register_duplicate_raises_and_replace_overrides():
    prop = _prop("testns.dup")
    register_property(prop)
    try:
        assert register_property(prop) is prop  # same object: idempotent
        with pytest.raises(ValueError, match="already registered"):
            register_property(_prop("testns.dup"))
        replacement = _prop("testns.dup")
        assert register_property(replacement, replace=True) is replacement
        assert get_property("testns.dup") is replacement
    finally:
        unregister_property("testns.dup")


def test_get_property_unknown_id_raises_keyerror():
    with pytest.raises(KeyError, match="unknown property"):
        get_property("nope.not_a_property")


def test_select_unknown_pattern_raises_valueerror():
    with pytest.raises(ValueError, match="matches no registered property"):
        select_properties("nope.*")


def test_select_with_exclude():
    selected = select_properties(
        "randtree.*", exclude=["randtree.recovery_timer_running", "*.liveness"])
    names = [prop.name for prop in selected]
    assert "randtree.recovery_timer_running" not in names
    assert "randtree.children_siblings_disjoint" in names


def test_a_fresh_interpreter_resolves_every_bundled_namespace():
    # ``import repro`` registers all six systems' properties; nothing in
    # the registry loads them on demand.
    import pathlib
    import subprocess
    import sys

    repo_root = str(pathlib.Path(__file__).resolve().parents[2])
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.properties.registry import select_properties\n"
        "print(len(select_properties('kvstore.*', 'crdtset.*')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd=repo_root, check=True)
    assert int(out.stdout) > 0


def test_exact_id_and_cross_namespace_patterns():
    (prop,) = select_properties("paxos.at_most_one_value_chosen")
    assert prop.name == "paxos.at_most_one_value_chosen"
    agreement = select_properties("*.at_most_one_value_chosen")
    assert [p.name for p in agreement] == ["paxos.at_most_one_value_chosen"]


def test_resolve_mixes_instances_and_patterns_without_duplicates():
    instance = get_property("chord.ordering_constraint")
    resolved = resolve_properties([instance, "chord.*"])
    names = [prop.name for prop in resolved]
    assert names.count("chord.ordering_constraint") == 1
    assert set(names) >= {"chord.ordering_constraint",
                          "chord.pred_self_implies_succ_self"}


def test_resolve_rejects_non_property_objects():
    with pytest.raises(TypeError, match="glob pattern or a Property"):
        resolve_properties([42])


def test_resolve_empty_selection_is_empty():
    assert resolve_properties([]) == []
