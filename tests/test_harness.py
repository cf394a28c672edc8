"""Closed-loop execution harness and batch statistics."""

import hashlib
import json

import numpy as np
import pytest
from scipy import stats as sstats

from poddp.baselines import ExecutablePlan, PlannerKind, plan
from poddp.belief import Belief, DegenerateEvidenceError
from poddp.harness import (
    episode_streams,
    execute_episode,
    run_batch,
    summarize,
    welch_t,
)
from poddp.model import condition_on_latent
from poddp.scenarios import build_scenario
from poddp.solver import SolverConfig, evaluate_tree_cost, solve

from conftest import make_latent_linear_model, scenario_with_overrides


def _deterministic_chain_scenario():
    """T-maze conditioned on Left: |Z| = 1, deterministic dynamics."""
    sc = build_scenario("tmaze")
    return sc, condition_on_latent(sc.model, 0)


def test_zero_noise_single_latent_replays_plan_cost():
    sc, model = _deterministic_chain_scenario()
    config = SolverConfig(horizon=sc.horizon, segments=1, max_iterations=30)
    plan_result = solve(model, sc.initial_state, Belief(np.ones(1)), config)
    trace = execute_episode(
        PlannerKind.PODDP,
        model,
        sc.initial_state,
        Belief(np.ones(1)),
        0,
        seed=0,
        config=config,
        control_low=sc.control_low,
        control_high=sc.control_high,
    )
    planned = evaluate_tree_cost(model, plan_result.tree)
    assert abs(trace.cumulative_cost - planned) < 1e-8


def test_plan_cache_keys_on_the_warm_start(monkeypatch):
    # Single latent, deterministic dynamics: every episode replans from the
    # same (x, b, schedule), so only the warm start tells the replans apart.
    from poddp import harness

    sc, model = _deterministic_chain_scenario()
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=3)
    planned = []
    real_plan, real_warm = harness.plan, ExecutablePlan.warm_start
    shift = [0.0]

    def counting_plan(*args, **kwargs):
        planned.append(args)
        return real_plan(*args, **kwargs)

    def shifted_warm(self, *args):
        return {h: u + shift[0] for h, u in real_warm(self, *args).items()}

    monkeypatch.setattr(harness, "plan", counting_plan)
    monkeypatch.setattr(ExecutablePlan, "warm_start", shifted_warm)
    cache = {}

    def run():
        execute_episode(
            PlannerKind.PODDP, model, sc.initial_state, Belief(np.ones(1)), 0,
            seed=0, config=config, control_low=sc.control_low,
            control_high=sc.control_high, _plan_cache=cache,
        )

    run()
    assert len(planned) == sc.segments
    run()  # same warm starts: every plan is shared
    assert len(planned) == sc.segments
    shift[0] = 0.01
    run()  # the first plan has no warm start and is shared; no replan is
    assert len(planned) == 2 * sc.segments - 1


def test_degenerate_evidence_replans_from_the_prior(monkeypatch):
    # An observation no hypothesis explains leaves the belief as it was: the
    # episode goes on, and every replan starts from the prior.
    from poddp import harness

    def degenerate(*args):
        raise DegenerateEvidenceError("zero likelihood under every latent")

    beliefs = []

    def recording_plan(kind, model, x, b, config, u_init=None):
        beliefs.append(b)
        return plan(kind, model, x, b, config, u_init=u_init)

    monkeypatch.setattr(harness, "bayes_update", degenerate)
    monkeypatch.setattr(harness, "plan", recording_plan)
    prior = Belief(np.array([0.3, 0.7]))
    config = SolverConfig(horizon=6, segments=3, max_iterations=5)
    trace = execute_episode(
        PlannerKind.PODDP, make_latent_linear_model(2), np.zeros(2), prior, 0, 0, config,
        -np.ones(1), np.ones(1),
    )
    assert trace.replans == 2
    assert np.isfinite(trace.cumulative_cost)
    assert len(beliefs) == 3 and all(b is prior for b in beliefs)


def test_replans_split_the_rest_of_the_first_schedule(monkeypatch):
    # A replan splits the remaining horizon equally into the remaining
    # segments. That split is the tail of the first plan's schedule, so the
    # segments end where the episode's first plan put them.
    from types import SimpleNamespace

    from poddp import harness

    model = make_latent_linear_model(2)
    schedules = []

    def stub_plan(kind, model, x, b, config, u_init=None):
        schedules.append(config.segment_lengths())
        return SimpleNamespace(
            converged=True,
            control=lambda t, x, b: np.zeros(1),
            warm_start=lambda steps, b: {(): np.zeros((config.horizon - steps, 1))},
        )

    monkeypatch.setattr(harness, "plan", stub_plan)
    monkeypatch.setattr(harness, "bayes_update", lambda *args: args[3])  # keep b
    prior = Belief(np.array([0.5, 0.5]))
    for horizon in range(1, 61):
        for segments in range(1, horizon + 1):
            config = SolverConfig(horizon=horizon, segments=segments)
            schedules.clear()
            execute_episode(
                PlannerKind.MLDDP, model, np.zeros(2), prior, 0, 0, config,
                -np.ones(1), np.ones(1),
            )
            first = config.segment_lengths()
            assert schedules == [first[i:] for i in range(segments)], (horizon, segments)


def test_same_seed_bit_identical_traces():
    sc = build_scenario("terrain")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=8)
    traces = [
        execute_episode(
            PlannerKind.PODDP,
            sc.model,
            sc.initial_state,
            sc.prior,
            1,
            seed=7,
            config=config,
            control_low=sc.control_low,
            control_high=sc.control_high,
        )
        for _ in range(2)
    ]
    a, b = traces
    assert a.cumulative_cost == b.cumulative_cost
    np.testing.assert_array_equal(a.final_state, b.final_state)


def test_cost_accounting_identity(monkeypatch):
    # T-maze dynamics are deterministic, so the episode can be replayed here:
    # its cost is the running cost of each clipped control plus the final
    # cost, all under the true latent value.
    from types import SimpleNamespace

    from poddp import harness

    sc = build_scenario("tmaze")
    assert sc.model.dynamics_noise is None
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments)
    low, high = sc.control_low, sc.control_high

    def raw_control(t):  # outside the box in every coordinate
        return (2.0 + 0.1 * t) * (high if t % 2 else low)

    def stub_plan(kind, model, x, b, config, u_init=None):
        return SimpleNamespace(
            converged=True,
            control=lambda t, x, b: raw_control(t),
            warm_start=lambda steps, b: None,
        )

    monkeypatch.setattr(harness, "plan", stub_plan)
    true_z = 1
    trace = execute_episode(
        PlannerKind.PODDP, sc.model, sc.initial_state, sc.prior, true_z, 5, config,
        low, high,
    )
    x, total = np.asarray(sc.initial_state, dtype=float), 0.0
    for m in config.segment_lengths():
        for t in range(m):
            u = np.clip(raw_control(t), low, high)
            assert np.all(u != raw_control(t))
            total += sc.model.running_cost(x, u, true_z)
            x = sc.model.dynamics_mean(x, u, true_z)
    total += sc.model.final_cost(x, true_z)
    np.testing.assert_array_equal(trace.final_state, x)
    assert trace.cumulative_cost == pytest.approx(total, rel=1e-12)


def test_tmaze_low_noise_reaches_true_goal_all_planners():
    sc = scenario_with_overrides("tmaze", {"sigma_level": "0.01"})
    config = SolverConfig(
        horizon=sc.horizon, segments=sc.segments, max_iterations=20,
        cost_tolerance=3e-5,
    )
    from poddp.scenarios import tmaze

    goal = tmaze.goals(tmaze.TMazeConfig.from_dict(sc.config))[tmaze.LEFT]
    for kind in PlannerKind:
        trace = execute_episode(
            kind, sc.model, sc.initial_state, sc.prior, tmaze.LEFT, seed=3,
            config=config, control_low=sc.control_low, control_high=sc.control_high,
        )
        dist = np.linalg.norm(trace.final_state[:2] - goal)
        assert dist < 2.0, (kind, dist)


def test_run_batch_reproducible():
    sc = build_scenario("terrain")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=8)
    a = run_batch(PlannerKind.PODDP, sc.model, sc.initial_state, sc.prior, 3, 11,
                  config, sc.control_low, sc.control_high)
    b = run_batch(PlannerKind.PODDP, sc.model, sc.initial_state, sc.prior, 3, 11,
                  config, sc.control_low, sc.control_high)
    np.testing.assert_array_equal(a.costs, b.costs)


def test_single_episode_stats_flag():
    sc = build_scenario("terrain")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=5)
    s = run_batch(PlannerKind.MLDDP, sc.model, sc.initial_state, sc.prior, 1, 0,
                  config, sc.control_low, sc.control_high)
    assert s.n == 1
    assert s.stderr == 0.0
    assert summarize([s])["summaries"][0]["stderr_flag"] is True
    assert s.mean == s.traces[0].cumulative_cost


def test_planners_with_coinciding_plans_give_identical_stats():
    sc, model = _deterministic_chain_scenario()
    config = SolverConfig(horizon=sc.horizon, segments=1, max_iterations=30)
    prior = Belief(np.ones(1))
    a = run_batch(PlannerKind.PODDP, model, sc.initial_state, prior, 3, 0, config,
                  sc.control_low, sc.control_high)
    b = run_batch(PlannerKind.MLDDP, model, sc.initial_state, prior, 3, 0, config,
                  sc.control_low, sc.control_high)
    np.testing.assert_array_equal(a.costs, b.costs)
    assert a.mean == b.mean and a.stderr == b.stderr


# SHA-256 of repr([(cumulative cost, final state as a list)]) of the episodes
# of a 3-episode batch at seeds 4-6 (true latents 1, 0, 1) and BENCH_BUDGET,
# per scenario and planner. A change to the process or observation sampler,
# the Bayes update or any planner moves at least one of them.
CLOSED_LOOP_BATCHES = {
    ("lanechange", "poddp"): "d828494ec022dd87cd02ac3654c05bc1d5bd576ebc9ca6f815f7f516aa25a9e5",
    ("lanechange", "mlddp"): "6778b8a8cd56f638a847fb33f29de0dfecd0345924f0811ec8c8675889e82cfc",
    ("lanechange", "pwddp"): "25a7e79f9f69c80774f27e690ddf4208456c04feb6ea2f06aaa9701716569e87",
    ("terrain", "poddp"): "49c4a520285b3378265d3905c9b79811cf0e9f326b299aeda8cb63cf6e7f4a3e",
    ("terrain", "mlddp"): "7081cd7f5ccc3da3ab902ce7bff55fff1012176801803fdf9baf57166fbea5d3",
    ("terrain", "pwddp"): "4f43e327c3a33236c9d78c6b51ba29ecf5172c6fc4cc8b0b829d492eb3078d4c",
    ("tmaze", "poddp"): "a032d9bf6e041477e4b86f97d4d17935a0ca8baa61c283eef023c68abaa087ec",
    ("tmaze", "mlddp"): "ab1b7e612db375af7815b625e9236c9d073cf10295516d0a9c0eda68fb913c1a",
    ("tmaze", "pwddp"): "cda8cf478720121d9a39bf9b450f155d98c9c89c38788f0cccfb8f055fee1fbc",
}


@pytest.mark.parametrize("name, planner", sorted(CLOSED_LOOP_BATCHES))
def test_closed_loop_batch_is_pinned(name, planner, request):
    from poddp.cli import BENCH_BUDGET

    sc = request.getfixturevalue(f"{name}_scenario")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, **BENCH_BUDGET)
    batch = run_batch(
        PlannerKind(planner), sc.model, sc.initial_state, sc.prior, 3, 4, config,
        sc.control_low, sc.control_high,
    )
    assert [tr.true_z for tr in batch.traces] == [1, 0, 1]
    record = repr([(tr.cumulative_cost, tr.final_state.tolist()) for tr in batch.traces])
    digest = hashlib.sha256(record.encode()).hexdigest()
    assert digest == CLOSED_LOOP_BATCHES[(name, planner)]


def test_prior_frequency_converges():
    prior = np.array([0.49, 0.51])
    count = 0
    n = 10000
    for seed in range(n):
        gt_rng, _, _ = episode_streams(seed)
        count += int(gt_rng.choice(2, p=prior) == 0)
    assert abs(count / n - 0.49) < 0.02


def test_episode_streams_are_independent_and_stable():
    a = episode_streams(123)
    b = episode_streams(123)
    for ra, rb in zip(a, b):
        assert ra.standard_normal() == rb.standard_normal()
    # Different sub-streams differ.
    gt, proc, obs = episode_streams(5)
    assert gt.standard_normal() != proc.standard_normal()


# ---------------------------------------------------------------------------
# Welch's t


def test_welch_identical_samples():
    t, p = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0 and p == 1.0


def test_welch_separated_degenerate_samples():
    rng = np.random.default_rng(0)
    a = 0.0 + rng.standard_normal(4) * 1e-9
    b = 1.0 + rng.standard_normal(4) * 1e-9
    _, p = welch_t(a, b)
    assert p < 1e-6


def test_welch_shifted_normals():
    rng = np.random.default_rng(42)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 0.5
    t, p = welch_t(a, b)
    assert p < 0.001
    # Reference statistics routine agrees.
    ref = sstats.ttest_ind(a, b, equal_var=False)
    assert abs(t - ref.statistic) < 1e-10
    assert abs(p - ref.pvalue) < 1e-12


def test_welch_requires_two_observations():
    with pytest.raises(ValueError):
        welch_t([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# Benchmark summary


def test_summary_json_layout():
    sc = build_scenario("terrain")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=5)
    batch = run_batch(PlannerKind.MLDDP, sc.model, sc.initial_state, sc.prior, 2, 0,
                      config, sc.control_low, sc.control_high)
    (row,) = json.loads(json.dumps(summarize([batch])["summaries"]))
    assert set(row) == {"planner", "n", "mean", "stderr", "stderr_flag"}
    assert row["planner"] == "mlddp"
    assert row["n"] == 2
    assert row["mean"] == batch.mean
    assert row["stderr"] == batch.stderr
    assert row["stderr_flag"] is False


@pytest.mark.parametrize("n", [1, 2])
def test_summarize_compares_each_pair_in_order(n):
    sc = build_scenario("terrain")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=3)
    batches = [
        run_batch(kind, sc.model, sc.initial_state, sc.prior, n, 0,
                  config, sc.control_low, sc.control_high)
        for kind in (PlannerKind.PWDDP, PlannerKind.MLDDP, PlannerKind.PODDP)
    ]
    summary = summarize(batches)
    assert [row["planner"] for row in summary["summaries"]] == ["pwddp", "mlddp", "poddp"]
    if n == 1:  # Welch's test needs two episodes per batch
        assert summary["comparisons"] == []
        return
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert len(summary["comparisons"]) == len(pairs)
    for (i, j), c in zip(pairs, summary["comparisons"]):
        t, p = welch_t(batches[i].costs, batches[j].costs)
        assert c == {"a": batches[i].planner.value, "b": batches[j].planner.value,
                     "t": t, "p": p}
