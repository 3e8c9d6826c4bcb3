"""Every name the benchmark in ``perfbench/`` takes from ``hsketch`` must exist,
and each call it makes of one must bind to that callable's signature.

The benchmark runs unchanged against each commit it compares, so a package
change that deletes or renames a name it uses would otherwise show up only
when the benchmark runs.  This test reads the benchmark's sources with
``ast``; it imports and runs none of them.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bound_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> the ``hsketch`` module or dotted name each import binds it to."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hsketch":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hsketch":
                    bound[alias.asname or alias.name] = alias.name
    return bound


def _hsketch_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, dotted name) for each name a source takes from ``hsketch``.

    That is each ``from hsketch... import name``, and each attribute read on
    a name bound to an ``hsketch`` module, such as ``prf.draw``.
    """
    bound = _bound_names(tree)
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hsketch"
        for alias in node.names
    ]
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


def _hsketch_calls(tree: ast.Module) -> list[tuple[str, int, list[str], int]]:
    """(dotted callee, positional count, keyword names, line) for each call of a name from ``hsketch``.

    The callee is a name imported from ``hsketch``, or an attribute read on a
    name bound to an ``hsketch`` module or name, such as ``prf.draw``.  Calls
    with a ``*`` or ``**`` splat are skipped: their arity is not in the source.
    """
    bound = _bound_names(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            callee = bound[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in bound:
            callee = f"{bound[func.value.id]}.{func.attr}"
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        calls.append((callee, len(node.args), [k.arg for k in node.keywords], node.lineno))
    return calls


def test_perfbench_calls_bind_to_the_signatures_they_call():
    calls = [
        (path.name, *call)
        for path in sorted(PERFBENCH.glob("*.py"))
        for call in _hsketch_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert len(calls) >= 50, len(calls)  # the walk found the benchmark's calls
    unbound = []
    for source, callee, nargs, keywords, line in calls:
        try:
            inspect.signature(_resolve(callee)).bind(*[None] * nargs, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{source}:{line}: {callee}: {exc}")
    assert not unbound, unbound
