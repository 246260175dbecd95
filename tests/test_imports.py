"""The package's modules import each other without a cycle, and every
name they export exists.

Every import counts, also one inside a function body: a lazy import hides a
cycle from the interpreter but not from the design.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = "robust_thresholds"
SRC = Path(__file__).resolve().parent.parent / "src" / PACKAGE
MODULES = {p.stem for p in SRC.glob("*.py")}


def imported_modules(path: Path) -> set:
    """Modules of the package that ``path`` imports anywhere in its body;
    a name imported from the package itself counts as ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__"
                             for a in node.names)
    return found & MODULES


def find_cycle(graph: dict) -> list:
    """One cycle of ``graph`` as a list of nodes, first repeated last, or []."""
    state = {}  # node -> "open" while on the stack, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [node])
            if cycle:
                return cycle
    return []


def test_package_import_graph_is_acyclic():
    graph = {p.stem: imported_modules(p) for p in SRC.glob("*.py")}
    # the parse sees the edges there are
    assert graph["cli"] >= {"dp", "pareto", "mesh", "config"}
    assert find_cycle(graph) == []


def test_every_export_resolves():
    # a name removed from a module must leave its ``__all__`` lists too
    package = importlib.import_module(PACKAGE)
    modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}")
                           for m in sorted(MODULES - {"__init__"})]
    for mod in modules:
        exports = getattr(mod, "__all__", [])
        assert len(set(exports)) == len(exports), mod.__name__
        missing = [name for name in exports if not hasattr(mod, name)]
        assert missing == [], mod.__name__
