"""Self-test of the benchmark's own code.

Shows that every correctness check passes a sound plan and rejects a
corrupted one, and that the tracer's self time excludes traced children.
Run from the root of a checkout (takes a few seconds):

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from poddp.baselines import PlannerKind, plan  # noqa: E402
from poddp.scenarios import build_scenario  # noqa: E402
from poddp.solver import SolverConfig  # noqa: E402

TMAZE = build_scenario("tmaze")
# A short three-segment horizon keeps every solve well under a second.
SHORT = SolverConfig(horizon=12, segments=3, max_iterations=8)
PLANS = {
    kind: plan(kind, TMAZE.model, TMAZE.initial_state, TMAZE.prior, SHORT)
    for kind in PlannerKind
}


def corrupted(kind, corrupt):
    """A deep copy of a solved plan's result, changed by `corrupt`."""
    result = copy.deepcopy(PLANS[kind].result)
    corrupt(result)
    return types.SimpleNamespace(result=result)


def plan_errors(kind, executable):
    view = checks.PlanView(kind, TMAZE.model, TMAZE.prior.probs)
    return checks.check_plan(view, executable, kind.value)


def perturb_control(result):
    h = max(result.tree.controls, key=len)
    result.tree.controls[h][1] += 0.05


def perturb_state(result):
    result.tree.xs[()][2] += 1e-6


def perturb_cost(result):
    result.cost *= 1.0 + 1e-7


def raise_logged_cost(result):
    last = dict(result.iterations[-1], alpha=1.0)
    result.iterations.append(dict(last, cost=last["cost"] + 1.0))


def test_sound_plans_pass():
    for kind in PlannerKind:
        assert plan_errors(kind, PLANS[kind]) == [], kind
        assert checks.missing_value_models(PLANS[kind].result.tree) == [], kind


def test_corrupted_plans_fail():
    # A changed control moves the replayed states, or only the cost where
    # the dynamics saturate the control.
    expected = {
        perturb_control: ("replayed states", "expected cost"),
        perturb_state: ("replayed states",),
        perturb_cost: ("expected cost",),
        raise_logged_cost: ("raised the cost",),
    }
    for kind in PlannerKind:
        for corrupt, messages in expected.items():
            errors = plan_errors(kind, corrupted(kind, corrupt))
            assert any(m in e for m in messages for e in errors), (kind, corrupt.__name__)


def test_dropped_value_model_fails():
    result = corrupted(PlannerKind.PODDP, lambda r: r.tree.value_models.pop((1,))).result
    assert checks.missing_value_models(result.tree) == [(1,)]


def test_tmaze_contingency():
    tree = copy.deepcopy(PLANS[PlannerKind.PODDP].result.tree)
    tree.xs[(0, 0)][-1][0], tree.xs[(1, 1)][-1][0] = -3.0, 3.0
    assert checks.check_contingency("tmaze", tree, TMAZE.config) == []
    tree.xs[(0, 0)][-1][0], tree.xs[(1, 1)][-1][0] = 3.0, -3.0
    assert checks.check_contingency("tmaze", tree, TMAZE.config)


def test_lanechange_contingency():
    lane = build_scenario("lanechange")
    lane_y = float(lane.config["lane_y"])
    tree = types.SimpleNamespace(xs={})

    def leaves(nice, aggressive):
        tree.xs[(0,)] = np.array([nice])
        tree.xs[(1,)] = np.array([aggressive])
        return checks.check_contingency("lanechange", tree, lane.config)

    ahead = [30.0, lane_y, 0.0, 10.0, 25.0, 10.0]
    behind = [20.0, lane_y, 0.0, 10.0, 25.0, 10.0]
    off_lane = [30.0, 0.0, 0.0, 10.0, 25.0, 10.0]
    assert leaves(ahead, behind) == []
    assert leaves(behind, ahead)
    assert leaves(off_lane, behind)


def test_ordering():
    assert checks.check_ordering("tmaze", {"poddp": 1.0, "mlddp": 2.0, "pwddp": 3.0}) == []
    assert checks.check_ordering("tmaze", {"poddp": 2.5, "mlddp": 2.0, "pwddp": 3.0})
    assert checks.check_ordering("lanechange", {"poddp": 2.5, "mlddp": 2.0, "pwddp": 3.0}) == []


def test_tracer_self_time():
    tracer = layers.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.span("child", child)

    def parent():
        time.sleep(0.01)
        traced_child()
        traced_child()

    tracer.span("parent", parent)()
    p, c = tracer.layers["parent"], tracer.layers["child"]
    assert (p.calls, c.calls) == (1, 2)
    assert abs(p.s - p.self_s - c.s) < 1e-9
    assert 0.009 < p.self_s < p.s
    assert tracer.edges[("parent", "child")][0] == 2


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
