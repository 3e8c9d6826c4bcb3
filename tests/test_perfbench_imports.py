"""Every name the benchmark in ``perfbench/`` takes from ``hsketch`` must exist.

The benchmark runs unchanged against each commit it compares, so a package
change that deletes or renames a name it uses would otherwise show up only
when the benchmark runs.  This test reads the benchmark's sources with
``ast``; it imports and runs none of them.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _hsketch_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, dotted name) for each name a source takes from ``hsketch``.

    That is each ``from hsketch... import name``, and each attribute read on
    a name bound to an ``hsketch`` module, such as ``prf.draw``.
    """
    bound: dict[str, str] = {}  # local name -> the hsketch module or name it binds
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hsketch":
            for alias in node.names:
                names.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hsketch":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                names.append((bound[node.value.id], node.attr))
    return names


def _resolve(dotted: str):
    """The module named ``dotted``, or the attribute it names on its parent."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, name = dotted.rpartition(".")
        return getattr(_resolve(parent), name)


def test_perfbench_imports_only_names_that_exist():
    sources = sorted(PERFBENCH.glob("*.py"))
    uses = {
        (path.name, module, name)
        for path in sources
        for module, name in _hsketch_names(ast.parse(path.read_text(), filename=str(path)))
    }
    modules = {module for _, module, _ in uses}
    assert {"hsketch", "hsketch.experiments", "hsketch.workloads"} <= modules, modules
    missing = []
    for source, module, name in sorted(uses):
        try:
            owner = _resolve(module)
        except (ImportError, AttributeError):
            missing.append(f"{source}: {module}")
            continue
        if not hasattr(owner, name):
            missing.append(f"{source}: {module}.{name}")
    assert not missing, missing
