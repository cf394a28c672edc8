"""MLDDP and PWDDP baselines."""

import numpy as np
import pytest

import poddp.solver
from poddp.baselines import PlannerKind, plan, planning_belief, stacked_model
from poddp.belief import Belief, logits
from poddp.model import condition_on_latent
from poddp.solver import BackwardFailureError, SolverConfig, solve

from conftest import make_latent_linear_model


def _tmaze_config(sc, **kw):
    base = dict(horizon=sc.horizon, segments=sc.segments, max_iterations=40,
                cost_tolerance=1e-7)
    base.update(kw)
    return SolverConfig(**base)


def test_mlddp_plans_against_argmax(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=15)
    p = plan(
        PlannerKind.MLDDP, sc.model, sc.initial_state, Belief(np.array([0.51, 0.49])), config
    )
    chain = solve(
        condition_on_latent(sc.model, 0),
        sc.initial_state,
        Belief(np.ones(1)),
        SolverConfig(horizon=sc.horizon, segments=1, max_iterations=15),
    )
    np.testing.assert_allclose(p.result.tree.controls[()], chain.tree.controls[()], atol=1e-12)


def test_mlddp_tie_breaks_to_lowest_index(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=10)
    tied = plan(
        PlannerKind.MLDDP, sc.model, sc.initial_state, Belief(np.array([0.5, 0.5])), config
    )
    left = plan(
        PlannerKind.MLDDP, sc.model, sc.initial_state, Belief(np.array([0.51, 0.49])), config
    )
    np.testing.assert_array_equal(
        tied.result.tree.controls[()], left.result.tree.controls[()]
    )


def test_mlddp_invariant_to_belief_within_argmax(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=10)
    a = plan(
        PlannerKind.MLDDP, sc.model, sc.initial_state, Belief(np.array([0.6, 0.4])), config
    )
    b = plan(
        PlannerKind.MLDDP, sc.model, sc.initial_state, Belief(np.array([0.95, 0.05])), config
    )
    np.testing.assert_array_equal(a.result.tree.controls[()], b.result.tree.controls[()])


def test_probability_readers_plan_apart_within_argmax(tmaze_scenario):
    # PODDP and PWDDP weigh every probability, so two beliefs with one most
    # likely value give them two plans. `planning_belief`, the harness's
    # plan-cache key, must keep the two apart for them, and only for MLDDP
    # may it make them one.
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=10)
    beliefs = Belief(np.array([0.6, 0.4])), Belief(np.array([0.95, 0.05]))
    for kind in PlannerKind:
        key_a, key_b = (planning_belief(kind, bel).probs for bel in beliefs)
        assert np.array_equal(key_a, key_b) == (kind is PlannerKind.MLDDP), kind
    for kind in (PlannerKind.PODDP, PlannerKind.PWDDP):
        a, b = (plan(kind, sc.model, sc.initial_state, bel, config) for bel in beliefs)
        assert not np.array_equal(a.result.tree.controls[()], b.result.tree.controls[()]), kind


def test_mlddp_right_prior_terminates_in_right_arm(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc)
    p = plan(
        PlannerKind.MLDDP, sc.model, sc.initial_state, Belief(np.array([0.49, 0.51])), config
    )
    terminal = p.result.tree.xs[()][-1]
    goal_x = float(sc.config["goal_lateral"])
    assert terminal[0] > 0.5 * goal_x  # right arm


def test_pwddp_single_latent_equals_plain_chain():
    model = make_latent_linear_model(1)
    config = SolverConfig(horizon=6, segments=1, max_iterations=50, cost_tolerance=1e-12)
    x0 = np.array([1.0, -0.4])
    pw = plan(PlannerKind.PWDDP, model, x0, Belief(np.ones(1)), config)
    chain = solve(model, x0, Belief(np.ones(1)), config)
    np.testing.assert_allclose(pw.result.tree.controls[()], chain.tree.controls[()], atol=1e-8)


def test_pwddp_degenerate_belief_equals_mlddp():
    model = make_latent_linear_model(2)
    config = SolverConfig(horizon=6, segments=1, max_iterations=60, cost_tolerance=1e-13)
    x0 = np.array([1.0, -0.4])
    pw = plan(PlannerKind.PWDDP, model, x0, Belief(np.array([1.0, 0.0])), config)
    ml = plan(PlannerKind.MLDDP, model, x0, Belief(np.array([1.0, 0.0])), config)
    np.testing.assert_allclose(
        pw.result.tree.controls[()], ml.result.tree.controls[()], atol=1e-8
    )


def test_pwddp_symmetric_tmaze_goes_straight(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc)
    p = plan(
        PlannerKind.PWDDP, sc.model, sc.initial_state, Belief(np.array([0.5, 0.5])), config
    )
    terminal = p.result.tree.xs[()][-1]
    assert abs(terminal[0]) < 0.5  # stays near the corridor centerline


def test_pwddp_stacked_cost_linear_in_belief(tmaze_scenario):
    sc = tmaze_scenario
    model = sc.model
    rng = np.random.default_rng(3)
    xs = np.concatenate([sc.initial_state + 0.1, sc.initial_state - 0.2])
    u = rng.standard_normal(2) * 0.1
    b1 = Belief(np.array([0.2, 0.8]))
    b2 = Belief(np.array([0.6, 0.4]))
    mid = Belief(0.5 * (b1.probs + b2.probs))
    c1 = stacked_model(model, b1).running_cost(xs, u, 0)
    c2 = stacked_model(model, b2).running_cost(xs, u, 0)
    cm = stacked_model(model, mid).running_cost(xs, u, 0)
    assert abs(cm - 0.5 * (c1 + c2)) < 1e-10
    f1 = stacked_model(model, b1).final_cost(xs, 0)
    f2 = stacked_model(model, b2).final_cost(xs, 0)
    fm = stacked_model(model, mid).final_cost(xs, 0)
    assert abs(fm - 0.5 * (f1 + f2)) < 1e-10


def test_baseline_iteration_logs_monotone(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=15)
    for kind in (PlannerKind.MLDDP, PlannerKind.PWDDP):
        p = plan(kind, sc.model, sc.initial_state, sc.prior, config)
        accepted = [row["cost"] for row in p.result.iterations if row["alpha"] > 0]
        assert all(b <= a + 1e-12 for a, b in zip(accepted, accepted[1:]))


def test_plan_dispatch_returns_executable(tmaze_scenario):
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=5)
    for kind in PlannerKind:
        p = plan(kind, sc.model, sc.initial_state, sc.prior, config)
        # a control for every step the harness runs before the next replan
        assert len(p.result.tree.controls[()]) >= config.segment_lengths()[0]
        u = p.control(0, sc.initial_state, sc.prior)
        assert u.shape == (2,)
        assert np.isfinite(u).all()


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_plan_control_is_the_feedback_law(kind, tmaze_scenario):
    # control(t, x, b) = u_t + K_t @ d: d is x minus the nominal state (x
    # copied per latent value for PWDDP), with the logit deviation of b
    # appended for PODDP; the baselines' controls ignore b.
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=5)
    p = plan(kind, sc.model, sc.initial_state, sc.prior, config)
    tree = p.result.tree
    _, K = tree.gains[()]
    copies = sc.model.num_latents if kind is PlannerKind.PWDDP else 1
    rng = np.random.default_rng(5)
    b = Belief(np.array([0.3, 0.7]))
    for t in range(config.segment_lengths()[0]):  # the steps run before a replan
        x = tree.xs[()][t][:4] + 0.1 * rng.standard_normal(4)
        d = np.concatenate([x] * copies) - tree.xs[()][t]
        if kind is PlannerKind.PODDP:
            d = np.concatenate([d, logits(b.probs) - tree.betas[()]])
        expected = tree.controls[()][t] + K[t][:, : d.size] @ d
        u = p.control(t, x, b)
        np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)
        assert not np.allclose(u, tree.controls[()][t])  # the feedback acts
        if kind is not PlannerKind.PODDP:
            np.testing.assert_array_equal(p.control(t, x, sc.prior), u)


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_plan_without_gains_applies_its_nominal_controls(kind, tmaze_scenario, monkeypatch):
    # When the backward pass fails at every lambda, the solve returns the
    # rolled-out tree with no gains and no value models, and the plan
    # applies that tree's controls with no feedback.
    def failing_backward_pass(linearization, lam):
        raise BackwardFailureError("Q_uu not positive definite")

    monkeypatch.setattr(poddp.solver, "backward_pass", failing_backward_pass)
    sc = tmaze_scenario
    p = plan(kind, sc.model, sc.initial_state, sc.prior, _tmaze_config(sc))
    tree = p.result.tree
    assert tree.gains == {} and tree.value_models == {}
    assert not p.converged and p.result.iterations == []
    rng = np.random.default_rng(4)
    for t in range(tree.segment_lengths[0]):
        x = sc.initial_state + rng.standard_normal(sc.model.state_dim)
        b = Belief(np.array([0.3, 0.7]))
        np.testing.assert_array_equal(p.control(t, x, b), tree.controls[()][t])


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_warm_start_continues_the_plan(kind, tmaze_scenario):
    # After the first segment, PODDP continues from the subtree under the
    # most likely child (ties: lowest index), re-rooted; a chain continues
    # from the controls it has not yet executed.
    sc = tmaze_scenario
    config = _tmaze_config(sc, max_iterations=3)
    p = plan(kind, sc.model, sc.initial_state, sc.prior, config)
    controls = p.result.tree.controls
    before = {h: u.copy() for h, u in controls.items()}
    steps = config.segment_lengths()[0]
    for probs, z in [([0.3, 0.7], 1), ([0.5, 0.5], 0)]:
        warm = p.warm_start(steps, Belief(np.array(probs)))
        if kind is PlannerKind.PODDP:
            expected = {(): controls[(z,)], (0,): controls[(z, 0)], (1,): controls[(z, 1)]}
        else:
            expected = {(): controls[()][steps:]}
        assert warm.keys() == expected.keys()
        for h, u in warm.items():
            np.testing.assert_array_equal(u, expected[h])
            u += 1.0  # the warm start is a copy: the plan keeps its controls
        assert all(np.array_equal(controls[h], u) for h, u in before.items())
