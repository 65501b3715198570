"""``ExecutionBackend`` declares everything the stack above the runtime uses.

The protocol's docstring calls its member list complete.  This walks the
code that is handed "a simulator" — controllers, monitor, faults, churn,
workload drivers, the live path and the systems' and scenarios' schedule /
collect hooks — and fails on any attribute read off a name ``sim`` or ``backend``
that the protocol does not declare.  The backends themselves are held to
the runtime's public surface: nothing under ``src/repro/backends/`` names a
``_``-prefixed member of :mod:`repro.runtime`.
"""

import ast
from pathlib import Path

from repro.backends import ExecutionBackend

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CHECKED = sorted(
    [path for package in ("core", "faults", "workload")
     for path in (SRC / package).rglob("*.py")]
    + [SRC / "runtime" / "churn.py", SRC / "api" / "experiment.py"]
    + list((SRC / "systems").glob("*/spec.py")))

DECLARED = (set(ExecutionBackend.__annotations__)
            | {name for name, member in vars(ExecutionBackend).items()
               if callable(member) and not name.startswith("_")})


def _backend_reads(tree: ast.AST):
    """``(attribute, line)`` of every read off a name ``sim`` / ``backend``
    (a parameter everywhere but in ``Experiment._run_live``, which builds
    the backend it drives)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("sim", "backend")):
            yield node.attr, node.lineno


def test_every_backend_attribute_used_is_declared_by_the_protocol():
    used = {(attribute, f"{path.relative_to(SRC)}:{line}")
            for path in CHECKED
            for attribute, line in _backend_reads(
                ast.parse(path.read_text(encoding="utf-8")))}
    # The walk is not vacuous: faults, churn and the live path.
    assert {"network", "crash_node", "events_executed", "run",
            "total_service_bytes"} <= {attribute for attribute, _ in used}
    undeclared = sorted(f"{where}: .{attribute}" for attribute, where in used
                        if attribute not in DECLARED)
    assert not undeclared, "\n".join(undeclared)
    # The one optional member is fetched with getattr, never read directly.
    assert "wire_report" not in DECLARED


def _private_names(tree: ast.AST) -> set[str]:
    """Every ``_``-prefixed (non-dunder) name a module defines: functions
    and methods, assigned names, and attributes stored on ``self``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            found.add(node.attr)
    return {name for name in found
            if name.startswith("_") and not name.startswith("__")}


def test_no_backend_reaches_into_the_runtime_private_members():
    private = set().union(*(
        _private_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in (SRC / "runtime").glob("*.py")))
    # The walk is not vacuous: the scheduler's internals are in the set.
    assert {"_execute_event", "_dispatch", "_queue", "_inflight",
            "_transmit"} <= private
    reached = []
    for path in sorted((SRC / "backends").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            reached += [f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                        for name in names if name in private]
    assert not reached, "\n".join(reached)
