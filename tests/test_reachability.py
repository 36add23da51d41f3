"""Every function in ``src/`` has a caller that is not a test.

An AST scan lists every function and method defined under ``src/`` and
every name that code in ``src/``, ``benchmarks/``, ``perfbench/``,
``examples/`` or the CI workflows uses: as a name, an attribute or an
import. A definition whose name nothing there uses is reached by tests
alone. Delete it with the tests that only exercise it, or list it in
:data:`ALLOWED` with the reason it stays.

The scan matches names, not call targets, so a definition counts as
used when any code names anything that shares its name. It misses dead
code that shares a name with live code; it never flags live code.
Dunder methods are exempt: the language calls them.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Directories whose code counts as a caller (``src/`` is also scanned
#: for definitions).
CALLERS = ("src", "benchmarks", "perfbench", "examples")

#: ``<path under src/repro>::<qualified name>`` -> why it stays.
ALLOWED: dict[str, str] = {
    "analysis/experiments.py::ExperimentContext.run_mechanism": (
        "README: the library door for live mechanism instances"
    ),
    "run/results.py::ResultSet.merge": (
        "README: joins store-loaded rows with fresh ones"
    ),
    "service/client.py::ServiceClient.stream_stats": (
        "README: the client side of GET /streams/:id/stats"
    ),
    "core/prediction_table.py::PredictionTable.peek": (
        "test oracle: test_prediction_table, test_distance, test_stride"
    ),
    "core/prediction_table.py::PredictionTable.set_index": (
        "test oracle: test_properties, test_prediction_table"
    ),
    "tlb/tlb.py::TLB.set_index": "test oracle: test_properties",
    "prefetch/base.py::Prefetcher.reset_stats": (
        "test oracle: test_engine's freshness check"
    ),
    "sched/queue.py::JobQueue.expire_leases": (
        "test oracle: an operation of tests/sched/test_queue_model.py"
    ),
    "service/server.py::_RequestHandler.do_GET": "http.server hook",
    "service/server.py::_RequestHandler.do_POST": "http.server hook",
    "service/server.py::_RequestHandler.log_message": "http.server hook",
}


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of every function and method."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found.append((qualified, child.name))
                visit(child, qualified + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _names_used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


@functools.cache
def _scan() -> frozenset[str]:
    """``<path>::<qualified name>`` of every definition in ``src/`` that
    no caller names (dunders excluded)."""
    used: set[str] = set()
    definitions: list[tuple[str, str, str]] = []
    package = ROOT / "src" / "repro"
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _names_used(tree)
            if directory == "src":
                where = path.relative_to(package).as_posix()
                definitions += [
                    (where, qualified, name) for qualified, name in _definitions(tree)
                ]
    for workflow in (ROOT / ".github" / "workflows").glob("*.yml"):
        used |= set(re.findall(r"[A-Za-z_]\w*", workflow.read_text()))
    return frozenset(
        f"{where}::{qualified}"
        for where, qualified, name in definitions
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_has_a_caller_outside_the_tests():
    unreached = sorted(_scan() - set(ALLOWED))
    assert not unreached, (
        "reached only by tests; delete each with its tests, or list it in "
        f"ALLOWED with the reason it stays: {unreached}"
    )


def test_every_allowed_entry_is_still_needed():
    stale = sorted(set(ALLOWED) - _scan())
    assert not stale, f"no longer defined, or now has a caller: {stale}"
