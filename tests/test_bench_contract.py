"""The names of the package that the benchmark in `bench/` reaches for.

The benchmark wraps solver layers and model callbacks by name and imports
budgets and scenario constants. A traced run stops with an error when a
layer it lists is never called, so a change that deletes or renames one of
these names breaks the benchmark, not the package's own tests. These checks
read `bench/` and change nothing there.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from poddp.model import ProblemModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Import bench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _package_references(path):
    """(module, attribute) pairs the file takes from the package:
    `from poddp.x import a` anywhere in it, and `(poddp.x, "a", ...)`
    tuples naming an attribute to replace."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("poddp"):
            refs.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, attr = node.elts[:2]
            if (
                isinstance(mod, ast.Attribute)
                and isinstance(mod.value, ast.Name)
                and mod.value.id == "poddp"
                and isinstance(attr, ast.Constant)
                and isinstance(attr.value, str)
            ):
                refs.add((f"poddp.{mod.attr}", attr.value))
    return refs


def test_traced_layers_exist():
    layers = _load("layers")
    for module, attr, _ in layers.PLAIN_SPANS:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_traced_callbacks_are_model_fields():
    layers = _load("layers")
    names = {f.name for f in dataclasses.fields(ProblemModel)}
    assert set(layers.CALLBACKS) <= names


def test_budgets_and_scenario_constants_exist():
    _load("checks")
    from poddp.cli import BENCH_BUDGET, SOLVE_BUDGET
    from poddp.scenarios.lane_change import AGGRESSIVE, LON_O, NICE
    from poddp.scenarios.tmaze import LEFT, RIGHT

    assert {"max_iterations", "cost_tolerance"} <= set(SOLVE_BUDGET)
    assert {"max_iterations", "cost_tolerance"} <= set(BENCH_BUDGET)
    assert LEFT != RIGHT and NICE != AGGRESSIVE and LON_O >= 4


@pytest.mark.parametrize("name", ["layers", "checks", "run", "selftest"])
def test_every_package_name_the_bench_uses_exists(name):
    refs = _package_references(BENCH / f"{name}.py")
    assert refs
    for module, attr in sorted(refs):
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
