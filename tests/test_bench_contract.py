"""The names and call signatures of the package that the benchmark in
`bench/` reaches for.

The benchmark wraps solver layers and model callbacks by name, reads some of
their arguments by position or keyword, and imports budgets and scenario
constants. A traced run stops with an error when a layer it lists is never
called, so a change that deletes, renames or stops calling one of these
names breaks the benchmark, not the package's own tests. These checks read
`bench/` and change nothing there.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def test_every_traced_layer_is_called(tmaze_scenario):
    # A short solve and a one-episode batch, as a traced round makes them.
    from poddp.baselines import PlannerKind
    from poddp.harness import run_batch
    from poddp.solver import SolverConfig, solve

    layers = _load("layers")
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=3)
    tracer = layers.Tracer()
    with layers.traced(tracer, sc.model) as model:
        solve(model, sc.initial_state, sc.prior, config)
        run_batch(
            PlannerKind.PODDP, model, sc.initial_state, sc.prior, 1, 0,
            config, sc.control_low, sc.control_high,
        )
    expected = {name for _, _, name in layers.PLAIN_SPANS}
    expected |= {"solver.forward_pass", "solver.backward_pass"}
    expected |= {f"scenarios.{cb}" for cb in layers.CALLBACKS}
    uncalled = sorted(name for name in expected if tracer.layers[name].calls == 0)
    assert not uncalled


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


def _bench_function(name, function):
    """The definition of `function` in bench/<name>.py."""
    tree = ast.parse((BENCH / f"{name}.py").read_text())
    (node,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    return node


def _bench_calls(name, function):
    """Every call of `function` by its bare name in bench/<name>.py."""
    tree = ast.parse((BENCH / f"{name}.py").read_text())
    return [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == function
    ]


def test_forward_pass_takes_gains_where_the_trace_reads_it():
    # The traced run counts a line-search trial when the sixth positional
    # argument of forward_pass, `gains`, is not None.
    from poddp.solver import forward_pass

    wrapper = [a.arg for a in _bench_function("layers", "forward_pass").args.args]
    assert wrapper[5] == "gains"
    assert list(inspect.signature(forward_pass).parameters)[: len(wrapper)] == wrapper


def test_execute_episode_takes_the_plan_cache_by_keyword():
    from poddp.harness import execute_episode

    wrapper = _bench_function("layers", "execute_episode")
    assert "_plan_cache" in [a.arg for a in wrapper.args.kwonlyargs]
    param = inspect.signature(execute_episode).parameters["_plan_cache"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)


def test_run_batch_takes_the_bounds_where_the_bench_passes_them():
    from poddp.harness import run_batch

    params = list(inspect.signature(run_batch).parameters)
    calls = _bench_calls("run", "run_batch")
    assert calls
    for call in calls:
        assert not call.keywords and len(call.args) <= len(params)
        passed = dict(zip(params, (ast.unparse(a) for a in call.args)))
        assert passed["control_low"].endswith(".control_low")
        assert passed["control_high"].endswith(".control_high")


def test_a_plan_exposes_what_the_bench_reads(tmaze_scenario):
    # bench/run.py reads a plan's `converged` and its solve's tree, cost and
    # iteration log.
    from poddp.baselines import PlannerKind, plan
    from poddp.solver import SolverConfig
    from poddp.tree import TrajectoryTree

    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=3)
    p = plan(PlannerKind.PODDP, sc.model, sc.initial_state, sc.prior, config)
    assert isinstance(p.result.tree, TrajectoryTree)
    assert isinstance(p.result.cost, float)
    assert len(p.result.iterations) == 3
    assert p.converged == p.result.converged
    # `converged` reads the solve's flag; it is not a copy and not settable.
    p.result.converged = not p.result.converged
    assert p.converged == p.result.converged
    with pytest.raises(AttributeError):
        p.converged = True
