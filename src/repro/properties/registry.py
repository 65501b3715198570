"""The global property registry: namespaced ids, lookup and selection.

Every property the bundled systems check self-registers here when its
``repro.systems.<name>.properties`` module is imported, which ``import
repro`` does for every bundled system.  The registry is what makes
properties a first-class, selectable surface:

* ``python -m repro properties`` lists it;
* ``Experiment.properties("randtree.*", exclude=[...])`` selects from it;
* the campaign ``properties=`` axis resolves patterns against it inside
  worker processes (patterns are plain strings, so they pickle).

Selection uses ``fnmatch``-style glob patterns over property ids
(``"randtree.*"``, ``"*.agreement"``, exact ids).  Selection order is the
registration order of the matched properties — NOT alphabetical — so
selecting a system's namespace reproduces the historical ``ALL_PROPERTIES``
check order exactly (search results and steering decisions depend on it).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable, Sequence, Union

from .base import Property

_REGISTRY: dict[str, Property] = {}


def register_property(prop: Property, *, replace: bool = False) -> Property:
    """Add ``prop`` to the registry (idempotent for identical re-imports)."""
    existing = _REGISTRY.get(prop.name)
    if existing is not None and existing is not prop and not replace:
        raise ValueError(
            f"property {prop.name!r} is already registered; "
            "pass replace=True to override"
        )
    _REGISTRY[prop.name] = prop
    return prop


def register_properties(
    props: Iterable[Property], *, replace: bool = False
) -> list[Property]:
    """Register several properties at once, returning them as a list."""
    return [register_property(prop, replace=replace) for prop in props]


def unregister_property(name: str) -> None:
    """Remove a registered property (no-op when absent)."""
    _REGISTRY.pop(name, None)


def get_property(name: str) -> Property:
    """Look up a registered property by exact id."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown property {name!r} (registered: {known})") from None


def all_properties() -> list[Property]:
    """Every registered property, in registration order."""
    return list(_REGISTRY.values())


def select_properties(
    *patterns: str,
    exclude: Sequence[str] = (),
) -> list[Property]:
    """Registered properties matching any ``fnmatch`` pattern.

    ``exclude`` patterns are applied after inclusion.  Raises
    ``ValueError`` when an include pattern matches nothing — a typo'd
    selection must fail loudly, not silently check nothing.
    """
    selected: dict[str, Property] = {}
    for pattern in patterns:
        matched = [
            prop for name, prop in _REGISTRY.items() if fnmatchcase(name, pattern)
        ]
        if not matched:
            known = ", ".join(sorted(_REGISTRY)) or "<none>"
            raise ValueError(
                f"property selector {pattern!r} matches no registered "
                f"property (registered: {known})"
            )
        for prop in matched:
            selected.setdefault(prop.name, prop)
    return [
        prop
        for prop in selected.values()
        if not any(fnmatchcase(prop.name, pattern) for pattern in exclude)
    ]


#: Selector inputs accepted by :func:`resolve_properties`.
PropertySelector = Union[str, Property]


def resolve_properties(
    selectors: Sequence[PropertySelector],
    *,
    exclude: Sequence[str] = (),
) -> list[Property]:
    """Resolve a mixed list of glob patterns and property instances.

    String selectors go through :func:`select_properties`; instances are
    kept as-is (and are also subject to ``exclude`` patterns).  Duplicate
    ids keep their first occurrence so check order stays deterministic.
    """
    resolved: dict[str, Property] = {}
    patterns = [sel for sel in selectors if isinstance(sel, str)]
    instances = [sel for sel in selectors if not isinstance(sel, str)]
    for prop in instances:
        if not isinstance(prop, Property):
            raise TypeError(
                f"property selector must be a glob pattern or a Property, "
                f"got {type(prop).__name__}"
            )
        resolved.setdefault(prop.name, prop)
    if patterns:
        for prop in select_properties(*patterns):
            resolved.setdefault(prop.name, prop)
    return [
        prop
        for prop in resolved.values()
        if not any(fnmatchcase(prop.name, pattern) for pattern in exclude)
    ]
