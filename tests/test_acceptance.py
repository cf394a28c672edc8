"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
as they complete. Several criteria share expensive artifacts through
module-scoped fixtures; the full gate takes under 2 minutes on a 2-core
host.
"""

import json
import time

import numpy as np
import pytest

from poddp.baselines import PlannerKind, plan
from poddp.belief import Belief, bayes_update
from poddp.harness import execute_episode, run_batch, welch_t
from poddp.model import condition_on_latent
from poddp.scenarios import build_scenario
from poddp.scenarios import lane_change, terrain, tmaze
from poddp.solver import SolverConfig, evaluate_tree_cost, solve

from conftest import (
    lqr_problem_model,
    make_latent_linear_model,
    make_lqr_problem,
    ref_ddp_solve,
    riccati_optimal_cost,
    scenario_with_overrides,
)
from test_solver import _check_q_derivs

BENCH_BUDGET = dict(max_iterations=20, cost_tolerance=3e-5)

# Iteration logs of every solve performed by this gate (criterion 9).
SOLVE_LOGS = []


def _register(result, label):
    SOLVE_LOGS.append((label, result.iterations))
    return result


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num} [{status}] {name}{suffix}", flush=True)
    assert ok, f"criterion {num}: {name}{suffix}"


# ---------------------------------------------------------------------------
# Shared artifacts


@pytest.fixture(scope="module")
def tmaze_solved():
    sc = build_scenario("tmaze")
    config = SolverConfig(
        horizon=sc.horizon, segments=sc.segments, max_iterations=60,
        cost_tolerance=1e-7,
    )
    result = _register(solve(sc.model, sc.initial_state, sc.prior, config), "tmaze")
    return sc, result


@pytest.fixture(scope="module")
def terrain_solved():
    sc = build_scenario("terrain")
    # The root segment's early lateral dip only flattens out near full
    # convergence, so this fixture gets a much larger budget than the others.
    config = SolverConfig(
        horizon=sc.horizon, segments=sc.segments, max_iterations=400,
        cost_tolerance=1e-12,
    )
    result = _register(solve(sc.model, sc.initial_state, sc.prior, config), "terrain")
    return sc, result


@pytest.fixture(scope="module")
def lanechange_solved():
    sc = build_scenario("lanechange")
    config = SolverConfig(
        horizon=sc.horizon, segments=sc.segments, max_iterations=40,
        cost_tolerance=1e-6,
    )
    result = _register(
        solve(sc.model, sc.initial_state, sc.prior, config), "lanechange"
    )
    return sc, result


def test_criterion_01_lqr_oracle():
    lqr = make_lqr_problem(state_dim=4, control_dim=2, horizon=30)
    model = lqr_problem_model(lqr)
    config = SolverConfig(horizon=30, segments=1, cost_tolerance=1e-12)
    start = time.perf_counter()
    result = _register(solve(model, lqr.x0, Belief(np.ones(1)), config), "lqr")
    elapsed = time.perf_counter() - start
    oracle = riccati_optimal_cost(lqr)
    gap = abs(result.cost - oracle)
    ok = result.converged and gap < 1e-6 and len(result.iterations) <= 5 and elapsed < 1.0
    _report(
        1,
        "LQR oracle equivalence",
        ok,
        f"cost gap {gap:.2e}, {len(result.iterations)} iterations, {elapsed:.2f}s",
    )


def test_criterion_02_plain_ddp_reduction():
    sc = build_scenario("terrain")
    model_z = condition_on_latent(sc.model, terrain.SMOOTH)
    config = SolverConfig(
        horizon=sc.horizon, segments=1, max_iterations=300,
        cost_tolerance=1e-14,
    )
    result = _register(
        solve(model_z, sc.initial_state, Belief(np.ones(1)), config), "terrain |Z|=1"
    )
    _, us_ref, _, _ = ref_ddp_solve(
        model_z, sc.initial_state, sc.horizon, max_iterations=300, cost_tolerance=1e-14
    )
    gap = float(np.max(np.abs(result.tree.controls[()] - us_ref)))
    _report(2, "plain-DDP reduction on terrain |Z|=1", gap < 1e-8, f"max control gap {gap:.2e}")


def test_criterion_03_q_derivatives(tmaze_solved, terrain_solved, lanechange_solved):
    rng = np.random.default_rng(33)
    sym_worst = 0.0
    for sc, result in (tmaze_solved, terrain_solved, lanechange_solved):
        tree = result.tree
        branch_nodes = [h for h in tree.controls if not tree.is_leaf(h)]
        hi = 0.8 * sc.control_high
        for _ in range(20):
            h = branch_nodes[rng.integers(len(branch_nodes))]
            j = tree.controls[h].shape[0] - 1
            x = tree.xs[h][j] + rng.standard_normal(sc.model.state_dim) * 0.01
            beta = tree.betas[h] + rng.standard_normal(sc.model.num_latents) * 0.01
            u = np.clip(tree.controls[h][j], -hi, hi)
            u = u + rng.standard_normal(sc.model.control_dim) * 0.01
            child_vms = [tree.value_models.get(h + (z,)) for z in range(tree.num_latents)]
            if any(vm is None for vm in child_vms):
                child_vms = None
            _check_q_derivs(sc.model, np.concatenate([x, beta]), u, child_vms, rtol=1e-3)
        for vm in tree.value_models.values():
            sym_worst = max(sym_worst, float(np.max(np.abs(vm.v_ss - vm.v_ss.T))))
    _report(
        3,
        "Q derivatives vs finite differences; V_ss symmetric",
        sym_worst < 1e-10,
        f"60 points at rtol 1e-3; worst asymmetry {sym_worst:.1e}",
    )


def test_criterion_04_tree_structure(tmaze_solved):
    from poddp.solver import forward_pass

    counts_ok = True
    for nz in (1, 2, 3):
        for k in (1, 2, 3):
            model = make_latent_linear_model(nz)
            lengths = (2,) * k
            u_nom = {}

            def fill(h, depth):
                u_nom[h] = np.zeros((lengths[depth], model.control_dim))
                if depth < k - 1:
                    for z in range(nz):
                        fill(h + (z,), depth + 1)

            fill((), 0)
            b0 = Belief(np.full(nz, 1.0 / nz))
            tree = forward_pass(
                model, np.zeros(2), b0, u_nom, None, None, 1.0, lengths
            )
            expected = (nz ** k - 1) // (nz - 1) if nz > 1 else k
            counts_ok &= len(tree.controls) == expected

    sc, result = tmaze_solved
    tree = result.tree
    replay_gap = 0.0
    for h in tree.controls:
        if tree.is_leaf(h):
            continue
        x_last, u_last = tree.xs[h][-1], tree.controls[h][-1]
        b_parent = Belief(tree.beliefs[h])
        means = np.array(
            [sc.model.dynamics_mean(x_last, u_last, z) for z in range(tree.num_latents)]
        )
        for z, x_next in enumerate(means):
            o_next = sc.model.observation_mean(x_next, z)
            b_child = bayes_update(o_next, x_next, means, b_parent, sc.model)
            replay_gap = max(
                replay_gap, float(np.max(np.abs(tree.beliefs[h + (z,)] - b_child.probs)))
            )
    ok = counts_ok and replay_gap < 1e-12
    _report(4, "tree node counts and belief replay", ok, f"replay gap {replay_gap:.1e}")


def test_criterion_05_tmaze_ordering():
    sc = scenario_with_overrides("tmaze", {"sigma_level": "9.1"})
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, **BENCH_BUDGET)
    start = time.perf_counter()
    stats = {}
    for kind in (PlannerKind.PODDP, PlannerKind.MLDDP, PlannerKind.PWDDP):
        stats[kind] = run_batch(
            kind, sc.model, sc.initial_state, sc.prior, 200, 0, config,
            sc.control_low, sc.control_high,
        )
    elapsed = time.perf_counter() - start
    poddp = stats[PlannerKind.PODDP]
    _, p_ml = welch_t(poddp.costs, stats[PlannerKind.MLDDP].costs)
    _, p_pw = welch_t(poddp.costs, stats[PlannerKind.PWDDP].costs)
    ok = (
        poddp.mean < stats[PlannerKind.MLDDP].mean
        and poddp.mean < stats[PlannerKind.PWDDP].mean
        and p_ml < 0.01
        and p_pw < 0.01
        and elapsed < 600.0
    )
    _report(
        5,
        "T-maze cost ordering at sigma 9.1, n=200",
        ok,
        f"poddp {poddp.mean:.0f} vs mlddp {stats[PlannerKind.MLDDP].mean:.0f} "
        f"(p={p_ml:.1e}) / pwddp {stats[PlannerKind.PWDDP].mean:.0f} "
        f"(p={p_pw:.1e}), {elapsed:.0f}s",
    )


def test_criterion_06_tmaze_contingency(tmaze_solved):
    _, result = tmaze_solved
    tree = result.tree
    # Terminal lateral position of each first-level branch, followed to the
    # leaf that keeps confirming the same latent value.
    left = tree.xs[(tmaze.LEFT, tmaze.LEFT)][-1][0]
    right = tree.xs[(tmaze.RIGHT, tmaze.RIGHT)][-1][0]
    ok = left * right < 0
    _report(
        6,
        "T-maze branches end in opposite arms",
        ok,
        f"terminal lateral {left:.2f} vs {right:.2f}",
    )


def test_criterion_07_terrain_exploration(terrain_solved):
    sc, result = terrain_solved
    cfg = terrain.TerrainConfig.from_dict(sc.config)
    goal = np.array([cfg.goal_x, cfg.goal_y])
    tree = result.tree
    root_lateral = float(np.mean(tree.xs[()][:, 1]) - sc.initial_state[1])
    smooth_branch_max_py = float(np.max(tree.xs[(terrain.SMOOTH,)][:, 1]))
    rough_entry = tree.xs[(terrain.ROUGH,)][0]
    rough_final = tree.xs[(terrain.ROUGH,)][-1]
    d_entry = float(np.linalg.norm(rough_entry[:2] - goal))
    d_final = float(np.linalg.norm(rough_final[:2] - goal))
    behavior_ok = (
        root_lateral > 0.0
        and smooth_branch_max_py > cfg.transition_y
        and d_final < d_entry
        and rough_final[1] < cfg.transition_y
    )

    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, **BENCH_BUDGET)
    stats = {}
    for kind in (PlannerKind.PODDP, PlannerKind.MLDDP, PlannerKind.PWDDP):
        stats[kind] = run_batch(
            kind, sc.model, sc.initial_state, sc.prior, 300, 0, config,
            sc.control_low, sc.control_high,
        )
    poddp = stats[PlannerKind.PODDP]
    _, p_ml = welch_t(poddp.costs, stats[PlannerKind.MLDDP].costs)
    _, p_pw = welch_t(poddp.costs, stats[PlannerKind.PWDDP].costs)
    ordering_ok = (
        poddp.mean <= stats[PlannerKind.MLDDP].mean
        and poddp.mean <= stats[PlannerKind.PWDDP].mean
        and p_ml < 0.1
        and p_pw < 0.1
    )
    _report(
        7,
        "terrain exploration and cost ordering at n=300",
        behavior_ok and ordering_ok,
        f"root lateral {root_lateral:+.2f}, smooth-branch max py "
        f"{smooth_branch_max_py:.1f}, poddp {poddp.mean:.0f} vs "
        f"mlddp {stats[PlannerKind.MLDDP].mean:.0f} (p={p_ml:.1e}) / "
        f"pwddp {stats[PlannerKind.PWDDP].mean:.0f} (p={p_pw:.1e})",
    )


LOW_NOISE = {
    "process_std_x": "0.002",
    "process_std_y": "0.002",
    "process_std_heading": "0.001",
    "process_std_speed": "0.004",
    "process_std_other_lon": "0.004",
    "process_std_other_speed": "0.01",
}


def test_criterion_08_lane_change():
    sc = scenario_with_overrides("lanechange", LOW_NOISE)
    config = SolverConfig(
        horizon=sc.horizon, segments=sc.segments, max_iterations=40,
        cost_tolerance=1e-6,
    )
    lane_y = float(sc.config["lane_y"])

    def in_lane(x):
        return abs(x[1] - lane_y) < 0.9

    def run(kind, true_z, seed, cache):
        return execute_episode(
            kind, sc.model, sc.initial_state, sc.prior, true_z, seed, config,
            sc.control_low, sc.control_high, _plan_cache=cache,
        )

    cache = {}
    nice_ok = aggr_ok = 0
    for seed in range(42, 52):
        tr = run(PlannerKind.PODDP, lane_change.NICE, seed, cache)
        if tr.final_state[0] > tr.final_state[4] and in_lane(tr.final_state):
            nice_ok += 1
        tr = run(PlannerKind.PODDP, lane_change.AGGRESSIVE, seed, cache)
        if tr.final_state[0] < tr.final_state[4] and in_lane(tr.final_state):
            aggr_ok += 1

    ml_cache = {}
    ml_ahead = 0
    for seed in range(500, 550):
        tr = run(PlannerKind.MLDDP, lane_change.NICE, seed, ml_cache)
        if tr.final_state[0] > tr.final_state[4]:
            ml_ahead += 1

    ok = nice_ok == 10 and aggr_ok == 10 and ml_ahead == 0
    _report(
        8,
        "lane change: PODDP passes Nice / yields to Aggressive; MLDDP never passes",
        ok,
        f"poddp nice {nice_ok}/10, aggressive {aggr_ok}/10, "
        f"mlddp ahead {ml_ahead}/50",
    )


def test_criterion_09_monotone_improvement(tmaze_solved, terrain_solved, lanechange_solved):
    # Include one solve per planner per scenario alongside the fixture solves.
    for name in ("tmaze", "terrain", "lanechange"):
        sc = build_scenario(name)
        config = SolverConfig(horizon=sc.horizon, segments=sc.segments, **BENCH_BUDGET)
        for kind in PlannerKind:
            p = plan(kind, sc.model, sc.initial_state, sc.prior, config)
            _register(p.result, f"{name}/{kind.value}")
    violations = 0
    rows = 0
    for _, log in SOLVE_LOGS:
        accepted = [row["cost"] for row in log if row["alpha"] > 0]
        rows += max(0, len(accepted) - 1)
        violations += sum(1 for a, b in zip(accepted, accepted[1:]) if b > a)
    _report(
        9,
        "accepted iterations never increase tree cost",
        violations == 0,
        f"{len(SOLVE_LOGS)} solves, {rows} accepted steps, {violations} violations",
    )


def test_criterion_10_benchmark_determinism(tmp_path):
    from poddp.cli import main

    args = [
        "benchmark", "--experiment", "tmaze", "--planners", "poddp,mlddp",
        "--n", "2", "--seed", "0",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("tmaze_episodes.csv", "tmaze_summary.json")
    )
    _report(
        10,
        "benchmark rerun is byte-identical",
        rc1 == 0 and rc2 == 0 and identical,
        "episodes CSV and summary JSON compared",
    )
