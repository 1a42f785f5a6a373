"""The names the benchmark reaches into the package by exist where it looks for them.

``bench/tracer.py`` skips a traced name that it cannot find, and
``bench/probes.py`` imports from the package by name, so a refactor that
moves one of them would otherwise show only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("span, owner, name", [(s, *where) for s, where in TRACER.TRACED.items()])
def test_each_traced_name_is_a_function_of_its_module(span, owner, name):
    assert owner in TRACER.MODULES
    fn = getattr(importlib.import_module(f"bootsmooth.{owner}"), name, None)
    assert inspect.isfunction(fn), f"{span}: bootsmooth.{owner}.{name} is not a function"
    assert fn.__module__ == f"bootsmooth.{owner}", f"{span} is defined in {fn.__module__}"


def test_the_generator_that_the_tracer_counts_exists():
    assert callable(getattr(importlib.import_module("bootsmooth.smoothing"), "generator", None))


def test_each_name_the_probes_import_exists():
    tree = ast.parse((BENCH / "probes.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bootsmooth"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
