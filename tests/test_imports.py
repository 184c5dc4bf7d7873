import ast
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "fibperm"


def _relative_imports(path: Path) -> set[str]:
    """The package modules a source file imports relatively, at any depth;
    ``from . import name`` imports the package itself, ``__init__``."""
    return {
        node.module.split(".")[0] if node.module else "__init__"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
    }


def test_package_imports_have_no_cycle():
    # importing one module cannot show a cycle: fibperm/__init__.py imports
    # nearly every module first
    graph = {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}
    assert "genfun" in graph["stats"] and "__init__" in graph["cli"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_layers_import_only_what_they_stand_on():
    # the variant registry sits below every formula module, and the pattern
    # layer stands on nothing that knows the classes or their statistics
    assert _relative_imports(PACKAGE / "corrections.py") == {"classes", "errors"}
    assert not _relative_imports(PACKAGE / "perms.py") & {"fib", "classes", "genfun"}


def _bench_dict(filename: str, name: str) -> dict:
    """The literal dict a bench script binds to *name*, read from its
    source so that no bench code runs."""
    tree = ast.parse((PACKAGE.parents[1] / "bench" / filename).read_text())
    values = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    assert len(values) == 1, (filename, name)
    return ast.literal_eval(values[0])


def test_bench_trace_targets_exist():
    # the tracer wraps every LAYERS target and the worker reads every CACHED
    # target's cache_info(), so a renamed function breaks every traced run
    layers = _bench_dict("layertrace.py", "LAYERS")
    cached = _bench_dict("worker.py", "CACHED")

    def target(module: str, attr: str):
        return getattr(importlib.import_module(f"fibperm.{module}"), attr, None)

    assert layers and cached
    for module, attr in [pair for group in layers.values() for pair in group]:
        assert callable(target(module, attr)), (module, attr)
    for module, attr in cached.values():
        assert hasattr(target(module, attr), "cache_info"), (module, attr)
