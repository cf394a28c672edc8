"""PODDP solver: forward pass, tree cost, Q-expansion, backward pass, solve."""

import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poddp.belief import (
    BELIEF_FLOOR,
    Belief,
    bayes_update,
    evidence,
    gaussian_log_density,
    softmax,
)
from poddp.model import ProblemModel, numerical_jacobian
import poddp.solver
from poddp.solver import (
    REGULARIZATION_FACTOR,
    REGULARIZATION_INIT,
    REGULARIZATION_MAX,
    BackwardFailureError,
    SolverConfig,
    _branch_jacobians,
    _cost_expansion,
    _expected_q,
    _insegment_jacobians,
    _insegment_step,
    _solve_gains,
    backward_pass,
    evaluate_tree_cost,
    forward_pass,
    linearize,
    node_dynamics_latent,
    optimize_control,
    solve,
    terminal_value_model,
)
from poddp.tree import QuadraticValueModel, TrajectoryTree, tree_to_dict

from conftest import (
    lqr_problem_model,
    make_latent_linear_model,
    make_lqr_problem,
    numerical_gradient,
    numerical_gradient_jacobian,
    ref_backward,
    ref_ddp_solve,
    ref_rollout,
    ref_trajectory_cost,
    riccati_optimal_cost,
)


# ---------------------------------------------------------------------------
# Forward pass


def _nominal_controls(model, lengths, rng=None):
    rng = rng or np.random.default_rng(5)
    u = {}

    def fill(h, depth):
        u[h] = rng.standard_normal((lengths[depth], model.control_dim)) * 0.1
        if depth < len(lengths) - 1:
            for z in range(model.num_latents):
                fill(h + (z,), depth + 1)

    fill((), 0)
    return u


def test_forward_pass_without_gains_keeps_nominal_controls():
    model = make_latent_linear_model(2)
    lengths = (3, 3)
    u_nom = _nominal_controls(model, lengths)
    b0 = Belief(np.array([0.4, 0.6]))
    tree = forward_pass(model, np.array([1.0, 0.5]), b0, u_nom, None, None, 1.0, lengths)
    for h, u in u_nom.items():
        np.testing.assert_array_equal(tree.controls[h], u)


def test_forward_pass_alpha_zero_on_nominal_keeps_controls():
    model = make_latent_linear_model(2)
    lengths = (3, 3)
    u_nom = _nominal_controls(model, lengths)
    b0 = Belief(np.array([0.4, 0.6]))
    x0 = np.array([1.0, 0.5])
    nominal = forward_pass(model, x0, b0, u_nom, None, None, 1.0, lengths)
    rng = np.random.default_rng(6)
    ns = model.state_dim + model.num_latents
    gains = {
        h: (rng.standard_normal(us.shape), rng.standard_normal(us.shape + (ns,)))
        for h, us in nominal.controls.items()
    }
    replay = forward_pass(model, x0, b0, nominal.controls, nominal, gains, 0.0, lengths)
    for h, us in nominal.controls.items():
        np.testing.assert_allclose(replay.controls[h], us, atol=1e-12)


def test_forward_pass_single_latent_matches_plain_rollout():
    model = make_latent_linear_model(1)
    lengths = (4,)
    u_nom = _nominal_controls(model, lengths)
    x0 = np.array([1.0, -0.2])
    tree = forward_pass(model, x0, Belief(np.ones(1)), u_nom, None, None, 1.0, lengths)
    xs = ref_rollout(model, x0, u_nom[()])
    np.testing.assert_allclose(tree.xs[()], xs, atol=1e-12)


def test_forward_pass_branch_beliefs_replay_bayes(tmaze_scenario):
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=4)
    tree = solve(sc.model, sc.initial_state, sc.prior, config).tree
    model = sc.model
    for h in tree.controls:
        if tree.is_leaf(h):
            continue
        x_last = tree.xs[h][-1]
        u_last = tree.controls[h][-1]
        b_parent = Belief(tree.beliefs[h])
        s_last = np.concatenate([x_last, tree.betas[h]])
        means = _successors(model, x_last, u_last)
        for z, x_next in enumerate(means):
            o_next = model.observation_mean(x_next, z)
            b_child = bayes_update(o_next, x_next, means, b_parent, model)
            np.testing.assert_allclose(
                tree.beliefs[h + (z,)], b_child.probs, atol=1e-12
            )
            # The successor whose Jacobian `_branch_jacobians` gives: the
            # child's first state and its logits.
            child = np.concatenate([tree.xs[h + (z,)][0], tree.betas[h + (z,)]])
            expected = _branch_chain(model, z)(s_last, u_last)
            np.testing.assert_allclose(child, expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Tree cost


def _linear_cost_model(slope):
    """x' = x; running and final cost both `slope` * x."""
    zero = np.zeros((1, 1))
    return ProblemModel(
        state_dim=1,
        control_dim=1,
        num_latents=2,
        dynamics_mean=lambda x, u, z: x,
        observation_mean=lambda x, z: np.zeros(1),
        observation_noise=lambda x, z: np.ones(1),
        running_cost=lambda x, u, z: slope * float(x[0]),
        final_cost=lambda x, z: slope * float(x[0]),
        dynamics_jacobians=lambda x, u, z: (np.eye(1), zero),
        observation_jacobian=lambda x, z: zero,
        running_cost_derivatives=lambda x, u, z: (
            np.array([slope]), np.zeros(1), zero, zero, zero
        ),
        final_cost_derivatives=lambda x, z: (np.array([slope]), zero),
    )


def test_evaluate_tree_cost_zero_costs():
    model = _linear_cost_model(0.0)
    tree = TrajectoryTree(num_latents=2, segment_lengths=(1, 1))
    tree.controls = {(): np.zeros((1, 1)), (0,): np.zeros((1, 1)), (1,): np.zeros((1, 1))}
    tree.xs = {(): np.zeros((1, 1)), (0,): np.zeros((2, 1)), (1,): np.zeros((2, 1))}
    tree.beliefs = {h: np.array([0.5, 0.5]) for h in tree.controls}
    assert evaluate_tree_cost(model, tree) == 0.0


def test_evaluate_tree_cost_hand_example():
    # Shared segment costs 5; branch totals (running + final) are 10 and 20;
    # root belief (0.3, 0.7) gives 5 + 0.3*10 + 0.7*20 = 22.
    model = _linear_cost_model(1.0)
    tree = TrajectoryTree(num_latents=2, segment_lengths=(1, 1))
    tree.controls = {(): np.zeros((1, 1)), (0,): np.zeros((1, 1)), (1,): np.zeros((1, 1))}
    tree.xs = {
        (): np.array([[5.0]]),
        (0,): np.array([[4.0], [6.0]]),
        (1,): np.array([[8.0], [12.0]]),
    }
    tree.beliefs = {
        (): np.array([0.3, 0.7]),
        (0,): np.array([0.9, 0.1]),
        (1,): np.array([0.2, 0.8]),
    }
    assert abs(evaluate_tree_cost(model, tree) - 22.0) < 1e-12


def test_evaluate_tree_cost_single_latent_equals_chain_cost():
    model = make_latent_linear_model(1)
    lengths = (4,)
    u_nom = _nominal_controls(model, lengths)
    x0 = np.array([1.0, -0.2])
    tree = forward_pass(model, x0, Belief(np.ones(1)), u_nom, None, None, 1.0, lengths)
    expected = ref_trajectory_cost(model, tree.xs[()], u_nom[()])
    assert abs(evaluate_tree_cost(model, tree) - expected) < 1e-12


def test_evaluate_tree_cost_latent_permutation_invariant(tmaze_scenario):
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=4)
    tree = solve(sc.model, sc.initial_state, sc.prior, config).tree
    cost = evaluate_tree_cost(sc.model, tree)

    perm = [1, 0]
    model = sc.model
    swapped_model = ProblemModel(
        state_dim=model.state_dim,
        control_dim=model.control_dim,
        num_latents=model.num_latents,
        dynamics_mean=lambda x, u, z: model.dynamics_mean(x, u, perm[z]),
        observation_mean=lambda x, z: model.observation_mean(x, perm[z]),
        observation_noise=lambda x, z: model.observation_noise(x, perm[z]),
        running_cost=lambda x, u, z: model.running_cost(x, u, perm[z]),
        final_cost=lambda x, z: model.final_cost(x, perm[z]),
        dynamics_jacobians=lambda x, u, z: model.dynamics_jacobians(x, u, perm[z]),
        observation_jacobian=lambda x, z: model.observation_jacobian(x, perm[z]),
        running_cost_derivatives=(
            lambda x, u, z: model.running_cost_derivatives(x, u, perm[z])
        ),
        final_cost_derivatives=lambda x, z: model.final_cost_derivatives(x, perm[z]),
    )
    swapped = TrajectoryTree(num_latents=2, segment_lengths=tree.segment_lengths)
    for h in tree.controls:
        hp = tuple(perm[z] for z in h)
        swapped.controls[hp] = tree.controls[h]
        swapped.xs[hp] = tree.xs[h]
        swapped.beliefs[hp] = tree.beliefs[h][perm]
    assert abs(evaluate_tree_cost(swapped_model, swapped) - cost) < 1e-10


# ---------------------------------------------------------------------------
# optimize_control


def _step_cost(model, x, beta, u):
    """The `_cost_expansion` of the single step (x, beta, u)."""
    levels, grads, hessians = _cost_expansion(
        model, np.atleast_2d(x), np.atleast_2d(u), np.asarray(beta, float)
    )
    return levels[0], grads[0], hessians[0]


def _branches(model, x, beta, u):
    """The successors (by `_branch_chain`) and `_branch_jacobians` of every
    latent."""
    s_vec = np.concatenate([x, beta])
    latents = range(model.num_latents)
    succs = [_branch_chain(model, z)(s_vec, u) for z in latents]
    return succs, _branch_jacobians(model, x, beta, u, _successors(model, x, u))


def _terminal_children(model, succs):
    """The value model of each branch's successor when the children are
    leaves of length zero: the expected final cost at the successor."""
    n = model.state_dim
    return [terminal_value_model(model, s[:n], s[n:]) for s in succs]


def test_optimize_control_zero_problem_gives_zero_gains():
    model = _linear_cost_model(0.0)
    x, beta, u = np.zeros(1), np.log(np.array([0.5, 0.5])), np.zeros(1)
    cost = _step_cost(model, x, beta, u)
    succs, jacs = _branches(model, x, beta, u)
    children = _terminal_children(model, succs)
    k, gain, vm = optimize_control(cost, beta, jacs, children, 1e-6 * np.eye(1))
    np.testing.assert_allclose(k, 0.0, atol=1e-12)
    np.testing.assert_allclose(gain, 0.0, atol=1e-12)
    assert abs(vm.dv) < 1e-12


def test_optimize_control_one_step_lqr_closed_form():
    lqr = make_lqr_problem(state_dim=3, control_dim=2, horizon=1, seed=9)
    model = lqr_problem_model(lqr)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(3)
    u_bar = rng.standard_normal(2) * 0.3
    p_mat = np.diag([1.5, 0.7, 2.2])
    p_vec = rng.standard_normal(3)
    n, nz = 3, 1
    v_s = np.zeros(n + nz)
    v_s[:n] = p_vec
    v_ss = np.zeros((n + nz, n + nz))
    v_ss[:n, :n] = p_mat
    child = QuadraticValueModel(dv=0.0, v_s=v_s, v_ss=v_ss, cost_to_go=0.0)
    beta = np.zeros(1)
    cost = _step_cost(model, x, beta, u_bar)
    _, jacs = _branches(model, x, beta, u_bar)
    k, _, _ = optimize_control(cost, beta, jacs, [child], np.zeros((2, 2)))
    # One-step LQR oracle around the same expansion point.
    b_mat = lqr.b
    q_u = lqr.r @ u_bar + b_mat.T @ p_vec
    q_uu = lqr.r + b_mat.T @ p_mat @ b_mat
    expected = -np.linalg.solve(q_uu, q_u)
    np.testing.assert_allclose(k, expected, atol=1e-6)


def test_optimize_control_symmetric_belief_no_lateral_preference(tmaze_scenario):
    sc = tmaze_scenario
    x, beta, u = sc.initial_state, np.log(np.array([0.5, 0.5])), np.zeros(2)
    cost = _step_cost(sc.model, x, beta, u)
    succs, jacs = _branches(sc.model, x, beta, u)
    children = _terminal_children(sc.model, succs)
    k, _, _ = optimize_control(cost, beta, jacs, children, 1e-6 * np.eye(2))
    assert abs(k[0]) < 1e-8  # steering component


# ---------------------------------------------------------------------------
# Backward pass and reduction to plain DDP


def _chain_tree(model, x0, us):
    tree = TrajectoryTree(num_latents=1, segment_lengths=(len(us),))
    xs = ref_rollout(model, x0, us)
    tree.controls[()] = np.asarray(us, float)
    tree.xs[()] = xs
    tree.betas[()] = np.zeros(1)
    tree.beliefs[()] = np.ones(1)
    return tree


def test_backward_pass_single_latent_matches_plain_ddp_gains():
    lqr = make_lqr_problem(state_dim=3, control_dim=2, horizon=6, seed=13)
    model = lqr_problem_model(lqr)
    rng = np.random.default_rng(14)
    us = rng.standard_normal((6, 2)) * 0.2
    tree = _chain_tree(model, lqr.x0[:3], us)
    lam = 1e-6
    gains, _ = backward_pass(linearize(model, tree), lam=lam)
    k, K = gains[()]
    assert k.shape == (6, 2) and K.shape == (6, 2, 4)
    ks, bigks = ref_backward(model, tree.xs[()], us, lam)
    for j in range(6):
        np.testing.assert_allclose(k[j], ks[j], atol=1e-10)
        # x-block of the feedback gain; the belief column is identically zero.
        np.testing.assert_allclose(K[j][:, :3], bigks[j], atol=1e-10)
        np.testing.assert_allclose(K[j][:, 3:], 0.0, atol=1e-10)


def test_converged_solve_has_small_open_loop_gains(lqr):
    model = lqr_problem_model(lqr)
    config = SolverConfig(horizon=lqr.horizon, segments=1, cost_tolerance=1e-12)
    result = solve(model, lqr.x0, Belief(np.ones(1)), config)
    assert result.converged
    assert max(np.max(np.abs(k)) for k, _ in result.tree.gains.values()) < 1e-4


def test_zero_cost_problem_converges_immediately():
    model = _linear_cost_model(0.0)
    config = SolverConfig(horizon=4, segments=2, max_iterations=10)
    result = solve(model, np.zeros(1), Belief(np.array([0.5, 0.5])), config)
    assert result.converged
    assert result.cost == 0.0
    assert len(result.iterations) == 1


def test_lqr_solve_matches_riccati(lqr):
    model = lqr_problem_model(lqr)
    config = SolverConfig(horizon=lqr.horizon, segments=1, cost_tolerance=1e-12)
    result = solve(model, lqr.x0, Belief(np.ones(1)), config)
    oracle = riccati_optimal_cost(lqr)
    assert result.converged
    assert abs(result.cost - oracle) < 1e-6


def test_single_latent_solve_matches_reference_ddp(terrain_scenario):
    model_z = __import__("poddp.model", fromlist=["condition_on_latent"]).condition_on_latent(
        terrain_scenario.model, 0
    )
    x0 = terrain_scenario.initial_state
    horizon = terrain_scenario.horizon
    config = SolverConfig(
        horizon=horizon,
        segments=1,
        max_iterations=300,
        cost_tolerance=1e-14,
    )
    result = solve(model_z, x0, Belief(np.ones(1)), config)
    _, us_ref, cost_ref, _ = ref_ddp_solve(
        model_z, x0, horizon, max_iterations=300, cost_tolerance=1e-14
    )
    np.testing.assert_allclose(result.tree.controls[()], us_ref, atol=1e-8)
    assert abs(result.cost - cost_ref) < 1e-8


def test_iteration_log_rows_have_expected_fields(tmaze_scenario):
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=5)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    assert result.iterations
    for row in result.iterations:
        assert set(row) == {"iteration", "cost", "alpha", "lambda", "gradient_norm"}


def test_monotone_improvement_on_accepted_iterations(tmaze_scenario):
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=15)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    accepted = [row["cost"] for row in result.iterations if row["alpha"] > 0]
    assert all(b <= a + 1e-12 for a, b in zip(accepted, accepted[1:]))


# ---------------------------------------------------------------------------
# Q-derivative finite-difference checks


def _successors(model, x, u):
    """Every latent's successor f(x, u, z), one row per latent."""
    return np.array([model.dynamics_mean(x, u, z) for z in range(model.num_latents)], float)


def _branch_chain(model, z):
    """Finite-difference oracle of a branch: the successor s' = (x', log b')
    through dynamics, observation and `bayes_update`, for latent branch z."""
    n = model.state_dim

    def chain(s, u):
        x, beta = s[:n], s[n:]
        b = Belief(softmax(beta))
        means = _successors(model, x, u)
        x_next = means[z]
        o_next = model.observation_mean(x_next, z)
        b_next = bayes_update(o_next, x_next, means, b, model)
        return np.concatenate([x_next, np.log(b_next.probs)])

    return chain


def _q_ingredients(model, s_vec, u, child_vms):
    """Analytic (q_s, q_u) of the branch step and a numeric Q evaluator
    through the finite-difference chain, sharing the same child value models
    and expansion point."""
    n = model.state_dim
    nz = model.num_latents
    ns = n + nz
    x, beta = s_vec[:n], s_vec[n:]
    chains = [_branch_chain(model, z) for z in range(nz)]
    succ_bars = [chains[z](s_vec, u) for z in range(nz)]
    vms = [
        child_vms[z]
        if child_vms is not None
        else terminal_value_model(model, succ_bars[z][:n], succ_bars[z][n:])
        for z in range(nz)
    ]
    jacs = _branch_jacobians(model, x, beta, u, _successors(model, x, u))
    _, q, _, _ = _expected_q(_step_cost(model, x, beta, u), beta, jacs, vms)

    def q_num(sv, uv):
        xb, bb = sv[:n], sv[n:]
        w = softmax(bb)
        total = 0.0
        for z in range(nz):
            ds = chains[z](sv, uv) - succ_bars[z]
            vm = vms[z]
            val = vm.cost_to_go + vm.v_s @ ds + 0.5 * ds @ vm.v_ss @ ds
            total += w[z] * (model.running_cost(xb, uv, z) + val)
        return total

    return q[:ns], q[ns:], q_num


def _check_q_derivs(model, s_vec, u, child_vms, rtol=1e-3):
    q_s, q_u, q_num = _q_ingredients(model, s_vec, u, child_vms)
    fd_s = numerical_gradient(lambda sv: q_num(sv, u), s_vec)
    fd_u = numerical_gradient(lambda uv: q_num(s_vec, uv), u)
    scale_s = max(1.0, np.max(np.abs(fd_s)))
    scale_u = max(1.0, np.max(np.abs(fd_u)))
    assert np.max(np.abs(q_s - fd_s)) / scale_s < rtol
    assert np.max(np.abs(q_u - fd_u)) / scale_u < rtol


def _branch_points(sc, seed, count=20):
    """Perturbed branch-step points (x, beta, u, child value models or None)
    taken from a briefly solved tree of the scenario."""
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=6)
    tree = solve(sc.model, sc.initial_state, sc.prior, config).tree
    rng = np.random.default_rng(seed)
    branch_nodes = [h for h in tree.controls if not tree.is_leaf(h)]
    hi = 0.8 * sc.control_high
    points = []
    for _ in range(count):
        h = branch_nodes[rng.integers(len(branch_nodes))]
        j = tree.controls[h].shape[0] - 1
        x = tree.xs[h][j] + rng.standard_normal(sc.model.state_dim) * 0.01
        beta = tree.betas[h] + rng.standard_normal(sc.model.num_latents) * 0.01
        u = np.clip(tree.controls[h][j], -hi, hi) + rng.standard_normal(
            sc.model.control_dim
        ) * 0.01
        child_vms = [tree.value_models.get(h + (z,)) for z in range(tree.num_latents)]
        if any(vm is None for vm in child_vms):
            child_vms = None
        points.append((x, beta, u, child_vms))
    return points


@pytest.mark.parametrize("name", ["tmaze", "terrain", "lanechange"])
def test_q_derivatives_match_finite_differences(name, request):
    sc = request.getfixturevalue(f"{name}_scenario")
    for x, beta, u, child_vms in _branch_points(sc, seed=21):
        _check_q_derivs(sc.model, np.concatenate([x, beta]), u, child_vms)


def _evidence_model(noise_scale):
    """Four latents with everything the branch chain rule must carry:
    state-dependent observation variances that differ by latent, observation
    means with a non-zero Jacobian, and dynamics noise that differs by
    latent, so the transition evidence and its normalization constant
    differ by latent. Small
    `noise_scale` makes the evidence decisive, so the posterior of the other
    latents sits at the floor."""
    centers = (-0.5, 0.2, 0.9, 1.6)
    rates = (0.5, 0.8, 1.1, 1.4)

    def dynamics_mean(x, u, z):
        return np.array(
            [x[0] + 0.1 * x[1], x[1] + 0.1 * (u[0] - rates[z] * math.sin(x[0]))]
        )

    def dynamics_jacobians(x, u, z):
        f_x = np.array([[1.0, 0.1], [-0.1 * rates[z] * math.cos(x[0]), 1.0]])
        return f_x, np.array([[0.0], [0.1]])

    def observation_mean(x, z):
        return np.array([math.sin(x[0]) + centers[z], x[0] * x[1] * (1.0 + 0.2 * z)])

    def observation_jacobian(x, z):
        g = 1.0 + 0.2 * z
        return np.array([[math.cos(x[0]), 0.0], [g * x[1], g * x[0]]])

    def observation_noise(x, z):
        return noise_scale * np.array(
            [
                0.5 + 0.1 * x[0] ** 2 + 0.05 * z,
                0.4 + 0.1 * x[1] ** 2 + 0.1 * math.tanh(x[0] * x[1]),
            ]
        )

    return ProblemModel(
        state_dim=2,
        control_dim=1,
        num_latents=4,
        dynamics_mean=dynamics_mean,
        observation_mean=observation_mean,
        observation_noise=observation_noise,
        running_cost=lambda x, u, z: float(x @ x + u @ u),
        final_cost=lambda x, z: float(x @ x),
        dynamics_jacobians=dynamics_jacobians,
        observation_jacobian=observation_jacobian,
        running_cost_derivatives=lambda x, u, z: (
            2.0 * x, 2.0 * u, 2.0 * np.eye(2), np.zeros((2, 1)), 2.0 * np.eye(1)
        ),
        final_cost_derivatives=lambda x, z: (2.0 * x, 2.0 * np.eye(2)),
        dynamics_noise=[
            noise_scale * np.array([0.02, 0.03]),
            noise_scale * np.array([0.03, 0.02]),
            noise_scale * np.array([0.025, 0.025]),
            noise_scale * np.array([0.035, 0.015]),
        ],
    )


def _evidence_points(model, seed, count=8):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = np.array([0.5, -0.3]) + rng.standard_normal(2) * 0.3
        beta = rng.standard_normal(model.num_latents)
        u = rng.standard_normal(1) * 0.5
        yield x, beta, u


@pytest.mark.parametrize("noise_scale", [1.0, 1e-3])
def test_evidence_equals_per_latent_densities(noise_scale):
    # One evidence pass over every latent gives, bit for bit, the sum of one
    # observation and one transition density per latent, each latent with
    # its own transition variances.
    model = _evidence_model(noise_scale)
    for x, _, u in _evidence_points(model, seed=26):
        x_next = model.dynamics_mean(x, u, 1)
        o = model.observation_mean(x_next, 2)
        expected = np.zeros(model.num_latents)
        for z in range(model.num_latents):
            expected[z] = gaussian_log_density(
                o, model.observation_mean(x_next, z), model.observation_noise(x_next, z)
            )
            expected[z] += gaussian_log_density(
                x_next, model.dynamics_mean(x, u, z), model.dynamics_noise_for(z)
            )
        means = _successors(model, x, u)
        assert _same_bits(evidence(o, x_next, means, model)[0], expected)
        # A latent index stands for that latent's mean observation.
        assert _same_bits(evidence(2, x_next, means, model)[0], expected)


def test_each_child_evaluates_its_observation_moments_once(tmaze_scenario):
    # The rollout and the linearization each evaluate a branch child's
    # observation mean and Jacobian once per latent value: the child's own
    # maximum-likelihood observation is read from that one pass.
    sc = tmaze_scenario
    calls = Counter()

    def counted(name):
        fn = getattr(sc.model, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = ("observation_mean", "observation_jacobian")
    model = dataclasses.replace(sc.model, **{name: counted(name) for name in names})
    lengths = SolverConfig(horizon=sc.horizon, segments=sc.segments).segment_lengths()
    u_nom = _nominal_controls(model, lengths, np.random.default_rng(3))
    tree = forward_pass(model, sc.initial_state, sc.prior, u_nom, None, None, 1.0, lengths)
    pairs = (len(tree.xs) - 1) * model.num_latents  # (child, latent) pairs
    assert calls == {"observation_mean": pairs}
    calls.clear()
    linearize(model, tree)
    assert calls == {"observation_mean": pairs, "observation_jacobian": pairs}


def _check_branch_jacobians(model, x, beta, u):
    s_vec = np.concatenate([x, beta])
    jacs = _branch_jacobians(model, x, beta, u, _successors(model, x, u))
    for z, jac in enumerate(jacs):
        chain = _branch_chain(model, z)
        fd = np.hstack(
            [
                numerical_jacobian(lambda sv: chain(sv, u), s_vec),
                numerical_jacobian(lambda uv: chain(s_vec, uv), u),
            ]
        )
        err = np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(fd)))
        assert err < 1e-6, (z, err)


@pytest.mark.parametrize("name", ["tmaze", "terrain", "lanechange"])
def test_branch_jacobians_match_finite_difference_chain(name, request):
    sc = request.getfixturevalue(f"{name}_scenario")
    for x, beta, u, _ in _branch_points(sc, seed=24, count=8):
        _check_branch_jacobians(sc.model, x, beta, u)


@pytest.mark.parametrize("noise_scale", [1.0, 1e-3])
def test_branch_jacobians_full_covariance_and_floor(noise_scale):
    model = _evidence_model(noise_scale)
    floored = 0
    for x, beta, u in _evidence_points(model, seed=25):
        _check_branch_jacobians(model, x, beta, u)
        for z in range(model.num_latents):
            post = np.exp(_branch_chain(model, z)(np.concatenate([x, beta]), u)[2:])
            floored += int(np.isclose(post.min(), BELIEF_FLOOR, rtol=1e-6))
    # The decisive case checks the clamped rows; the other the unclamped ones.
    assert (floored > 0) == (noise_scale < 1.0)


def test_value_hessian_symmetric(tmaze_scenario):
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=6)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    for vm in result.tree.value_models.values():
        assert np.max(np.abs(vm.v_ss - vm.v_ss.T)) < 1e-10


# ---------------------------------------------------------------------------
# In-segment step


def _insegment_points(sc, seed, count=12):
    """Perturbed in-segment expansion points (x, beta, u, z_dyn, next value
    model) taken from a briefly solved tree of the scenario."""
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=6)
    tree = solve(sc.model, sc.initial_state, sc.prior, config).tree
    rng = np.random.default_rng(seed)
    nodes = sorted(tree.controls)
    hi = 0.8 * sc.control_high
    points = []
    for _ in range(count):
        h = nodes[rng.integers(len(nodes))]
        m = tree.controls[h].shape[0]
        last = m if tree.is_leaf(h) else m - 1  # the branch step is not in-segment
        j = int(rng.integers(last))
        x = tree.xs[h][j] + rng.standard_normal(sc.model.state_dim) * 0.01
        beta = tree.betas[h] + rng.standard_normal(sc.model.num_latents) * 0.01
        u = np.clip(tree.controls[h][j], -hi, hi) + rng.standard_normal(
            sc.model.control_dim
        ) * 0.01
        z_dyn = node_dynamics_latent(h, tree.beliefs[()])
        points.append((x, beta, u, z_dyn, tree.value_models[h]))
    return points


def _latent_cost_scenario():
    """Two latents that change the state, control and cross cost terms (the
    shipped scenarios only change state costs), with analytic derivatives."""
    from types import SimpleNamespace

    a = np.array([[1.0, 0.1], [0.0, 1.0]])
    b = np.array([[0.0], [0.1]])
    targets = (np.array([1.0, -0.5]), np.array([-2.0, 0.5]))
    u_ref = (0.3, -0.4)
    cross = (0.2, -0.1)

    def running_cost(x, u, z):
        d = x - targets[z]
        e = u[0] - u_ref[z]
        return float(0.5 * d @ d + 0.5 * e * e + cross[z] * x[0] * u[0])

    def running_cost_derivatives(x, u, z):
        l_x = x - targets[z] + np.array([cross[z] * u[0], 0.0])
        l_u = np.array([u[0] - u_ref[z] + cross[z] * x[0]])
        l_xu = np.array([[cross[z]], [0.0]])
        return l_x, l_u, np.eye(2), l_xu, np.eye(1)

    model = ProblemModel(
        state_dim=2,
        control_dim=1,
        num_latents=2,
        dynamics_mean=lambda x, u, z: a @ x + b @ u,
        observation_mean=lambda x, z: np.array([float(z)]),
        observation_noise=lambda x, z: np.ones(1),
        running_cost=running_cost,
        final_cost=lambda x, z: float(x @ x),
        dynamics_jacobians=lambda x, u, z: (a, b),
        observation_jacobian=lambda x, z: np.zeros((1, 2)),
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=lambda x, z: (2.0 * x, 2.0 * np.eye(2)),
    )
    return SimpleNamespace(
        model=model,
        horizon=6,
        segments=2,
        initial_state=np.array([0.5, 0.0]),
        prior=Belief(np.array([0.4, 0.6])),
        control_high=np.array([10.0]),
    )


def _insegment_expansion(model, x, beta, u, z_dyn, vm):
    """The step's cost expansion, in-segment Jacobian, and the branch-step
    Q of `_expected_q` with that one successor shared by every latent."""
    cost = _step_cost(model, x, beta, u)
    jac = _insegment_jacobians(model, x[None], u[None], z_dyn)[0]
    nz = model.num_latents
    return cost, jac, _expected_q(cost, beta, [jac] * nz, [vm] * nz)


@pytest.mark.parametrize("name", ["tmaze", "terrain", "lanechange", "latent_costs"])
def test_insegment_q_derivatives_match_finite_differences(name, request):
    if name == "latent_costs":
        sc = _latent_cost_scenario()
    else:
        sc = request.getfixturevalue(f"{name}_scenario")
    model = sc.model
    n = model.state_dim
    ns = n + model.num_latents
    for x, beta, u, z_dyn, vm in _insegment_points(sc, seed=22):
        _, jac, (q0, q, big_q, _) = _insegment_expansion(model, x, beta, u, z_dyn, vm)
        f_x, f_u = jac[:n, :n], jac[:n, ns:]
        s_bar = np.concatenate([x, beta])

        def q_num(sv, uv):
            # Belief-weighted running cost plus the successor value, with the
            # dynamics linearized as DDP's Q-expansion assumes.
            xs, bs = sv[:n], sv[n:]
            w = softmax(bs)
            ds = sv - s_bar
            succ = np.concatenate([f_x @ ds[:n] + f_u @ (uv - u), ds[n:]])
            running = sum(
                w[z] * model.running_cost(xs, uv, z) for z in range(len(w))
            )
            return running + vm.cost_to_go + vm.v_s @ succ + 0.5 * succ @ vm.v_ss @ succ

        def grad_s(sv, uv):
            return numerical_gradient(lambda p: q_num(p, uv), sv)

        def grad_u(sv, uv):
            return numerical_gradient(lambda p: q_num(sv, p), uv)

        fd = {
            "q_s": grad_s(s_bar, u),
            "q_u": grad_u(s_bar, u),
            "q_ss": numerical_gradient_jacobian(lambda sv: grad_s(sv, u), s_bar),
            "q_su": numerical_gradient_jacobian(lambda uv: grad_s(s_bar, uv), u),
            "q_uu": numerical_gradient_jacobian(lambda uv: grad_u(s_bar, uv), u),
        }
        analytic = {
            "q_s": q[:ns],
            "q_u": q[ns:],
            "q_ss": big_q[:ns, :ns],
            "q_su": big_q[:ns, ns:],
            "q_uu": big_q[ns:, ns:],
        }
        assert abs(q0 - q_num(s_bar, u)) < 1e-9 * max(1.0, abs(q0))
        # The expansion is exact for this Q, so only differencing error
        # remains: about 1e-8 of the scale on the shipped scenarios.
        for key, value in fd.items():
            scale = max(1.0, np.max(np.abs(value)))
            assert np.max(np.abs(analytic[key] - value)) / scale < 1e-6, key


@pytest.mark.parametrize("name", ["tmaze", "lanechange"])
def test_insegment_q_equals_per_latent_expansion(name, request):
    # The in-segment step forms q = c + F^T v' and Q = C + F^T V' F; the
    # branch-step expansion, given the same successor for every latent,
    # must give the same step: its value-level and cross terms cancel
    # because the belief weights sum to one.
    sc = request.getfixturevalue(f"{name}_scenario")
    model = sc.model
    ns = model.state_dim + model.num_latents
    for x, beta, u, z_dyn, vm in _insegment_points(sc, seed=23, count=6):
        cost, jac, expansion = _insegment_expansion(model, x, beta, u, z_dyn, vm)
        reg = 1e-6 * np.eye(model.control_dim)
        while True:
            try:
                expected = _solve_gains(*expansion, ns, reg)
                break
            except BackwardFailureError:
                reg *= 10.0
        k, gain, got = _insegment_step(cost, jac, vm, reg)
        np.testing.assert_allclose(k, expected[0], rtol=1e-10, atol=1e-9)
        np.testing.assert_allclose(gain, expected[1], rtol=1e-10, atol=1e-9)
        for field in ("v_s", "v_ss", "dv", "cost_to_go"):
            np.testing.assert_allclose(
                getattr(got, field), getattr(expected[2], field), rtol=1e-10, atol=1e-9
            )


# ---------------------------------------------------------------------------
# Gains returned with the final tree


@pytest.mark.parametrize("name", ["tmaze", "terrain", "lanechange"])
def test_returned_gains_are_computed_on_the_returned_tree(name, request):
    from poddp.cli import BENCH_BUDGET

    sc = request.getfixturevalue(f"{name}_scenario")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, **BENCH_BUDGET)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    tree = result.tree
    assert set(tree.value_models) == set(tree.controls)

    # The final backward pass starts from the last logged lambda and raises
    # it on failure.
    lam = result.iterations[-1]["lambda"]
    while True:
        try:
            gains, vms = backward_pass(linearize(sc.model, tree), lam)
            break
        except BackwardFailureError:
            lam *= REGULARIZATION_FACTOR
            assert lam <= REGULARIZATION_MAX
    assert tree.gains.keys() == gains.keys() == tree.controls.keys()
    for h, (k, K) in gains.items():
        np.testing.assert_allclose(tree.gains[h][0], k, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tree.gains[h][1], K, rtol=1e-12, atol=1e-12)
    for h, vm in vms.items():
        np.testing.assert_allclose(tree.value_models[h].v_s, vm.v_s, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Divergent line-search trials


def _blow_up_model(limit: float, mode: str):
    """x' = x + u, driven towards x = 5; a control beyond `limit` makes the
    step go non-finite (`inf`, `nan`), overflow in the dynamics, or overflow
    in the running cost (`math.exp` of more than 709.8 raises, however
    little the control passes the limit). Analytic derivatives keep the
    backward pass on the (finite) nominal points."""

    def dynamics_mean(x, u, z):
        if abs(u[0]) > limit:
            if mode == "inf":
                return np.array([math.inf])
            if mode == "nan":
                return np.array([math.nan])
            if mode == "overflow":
                return np.array([math.exp(1e4 * abs(u[0]))])
        return x + u

    def running_cost(x, u, z):
        cost = float((x[0] - 5.0) ** 2 + 0.01 * u[0] ** 2)
        if mode == "cost" and abs(u[0]) > limit:
            cost += math.exp(800.0 + 1e4 * (abs(u[0]) - limit))
        return cost

    return ProblemModel(
        state_dim=1,
        control_dim=1,
        num_latents=1,
        dynamics_mean=dynamics_mean,
        observation_mean=lambda x, z: np.zeros(1),
        observation_noise=lambda x, z: np.ones(1),
        running_cost=running_cost,
        final_cost=lambda x, z: float((x[0] - 5.0) ** 2),
        dynamics_jacobians=lambda x, u, z: (np.eye(1), np.eye(1)),
        observation_jacobian=lambda x, z: np.zeros((1, 1)),
        running_cost_derivatives=lambda x, u, z: (
            2.0 * (x - 5.0),
            0.02 * u,
            2.0 * np.eye(1),
            np.zeros((1, 1)),
            0.02 * np.eye(1),
        ),
        final_cost_derivatives=lambda x, z: (2.0 * (x - 5.0), 2.0 * np.eye(1)),
    )


@settings(max_examples=25, deadline=None)
@given(
    limit=st.floats(0.05, 2.0),
    mode=st.sampled_from(["inf", "nan", "overflow", "cost"]),
)
# Just past the limit the old penalty, exp(1e4 (|u| - limit)), was finite
# and small, so this control was rightly accepted.
@example(limit=0.15318627842729787, mode="cost")
def test_divergent_line_search_trials_are_rejected(limit, mode):
    model = _blow_up_model(limit, mode)
    config = SolverConfig(horizon=4, segments=1, max_iterations=4)
    initial_cost = 4 * 25.0 + 25.0
    result = solve(model, np.zeros(1), Belief(np.ones(1)), config)
    assert math.isfinite(result.cost)
    assert result.cost < initial_cost
    assert np.isfinite(result.tree.xs[()]).all()
    assert np.max(np.abs(result.tree.controls[()])) <= limit


# ---------------------------------------------------------------------------
# One linearization per nominal tree, and the cold solves it must not move


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_sweeps(got, expected, histories):
    (gains, vms), (ref_gains, ref_vms) = got, expected
    assert gains.keys() == ref_gains.keys() == vms.keys() == ref_vms.keys()
    assert set(gains) == set(histories)
    for h, (k, K) in gains.items():
        assert _same_bits(k, ref_gains[h][0]), h
        assert _same_bits(K, ref_gains[h][1]), h
        for name in ("dv", "v_s", "v_ss", "cost_to_go"):
            assert _same_bits(getattr(vms[h], name), getattr(ref_vms[h], name)), (h, name)


# The per-node sweep, one Riccati step per node and step, as the solver ran
# it before each tree level was swept as one stacked step. It is the oracle
# `backward_pass` must equal bit for bit.


def _ref_solve_gains(q0, q, big_q, dv_next, ns, lam):
    big_q = 0.5 * (big_q + big_q.T)
    nu = q.size - ns
    try:
        chol = np.linalg.cholesky(big_q[ns:, ns:] + lam * np.eye(nu))
    except np.linalg.LinAlgError:
        raise BackwardFailureError("Q_uu not positive definite")
    chol_inv = np.linalg.inv(chol)
    half_k = chol_inv @ q[ns:]
    half_gain = chol_inv @ big_q[ns:, :ns]
    k = -chol_inv.T @ half_k
    gain = -chol_inv.T @ half_gain
    v_s = q[:ns] + big_q[:ns, ns:] @ k
    v_ss = big_q[:ns, :ns] - half_gain.T @ half_gain
    dv = 0.5 * float(k @ q[ns:]) + dv_next
    return k, gain, QuadraticValueModel(dv=dv, v_s=v_s, v_ss=v_ss, cost_to_go=float(q0))


def _ref_insegment_step(cost, jac, next_vm, lam):
    c0, c, big_c = cost
    q = c + jac.T @ next_vm.v_s
    big_q = big_c + jac.T @ next_vm.v_ss @ jac
    return _ref_solve_gains(
        c0 + next_vm.cost_to_go, q, big_q, next_vm.dv, jac.shape[0], lam
    )


def _ref_tree_backward(model, tree, lam):
    """Depth-first, post-order sweep: a node's children first, combined by
    the belief-weighted expansion at its branch step, then the per-step
    recursion back through its segment. Each node's expansions come from
    the per-node functions `linearize` calls."""
    gains, vms = {}, {}

    def visit(h):
        xs, us, beta = tree.xs[h], tree.controls[h], tree.betas[h]
        levels, grads, hessians = _cost_expansion(model, xs, us, beta)
        m = us.shape[0]
        m_in = m if tree.is_leaf(h) else m - 1
        z_dyn = node_dynamics_latent(h, tree.beliefs[()])
        jacs = _insegment_jacobians(model, xs[:m_in], us[:m_in], z_dyn)
        k = np.empty(us.shape)
        K = np.empty(k.shape + (jacs.shape[1],))
        if tree.is_leaf(h):
            vm = terminal_value_model(model, tree.xs[h][-1], tree.betas[h])
        else:
            children = [visit(h + (z,)) for z in range(tree.num_latents)]
            succ = _successors(model, xs[-1], us[-1])
            branch = _branch_jacobians(model, xs[-1], beta, us[-1], succ)
            j = m - 1
            cost = (levels[j], grads[j], hessians[j])
            q_terms = _expected_q(cost, beta, branch, children)
            k[j], K[j], vm = _ref_solve_gains(*q_terms, jacs.shape[1], lam)
        for j in reversed(range(m_in)):
            cost = (levels[j], grads[j], hessians[j])
            k[j], K[j], vm = _ref_insegment_step(cost, jacs[j], vm, lam)
        gains[h], vms[h] = (k, K), vm
        return vm

    visit(())
    return gains, vms


def _check_sweeps_against_reference(model, tree, lams):
    lin = linearize(model, tree)
    swept = 0
    for lam in lams:
        try:
            expected = _ref_tree_backward(model, tree, lam)
        except BackwardFailureError:
            with pytest.raises(BackwardFailureError):
                backward_pass(lin, lam)
            continue
        _assert_same_sweeps(backward_pass(lin, lam), expected, tree.controls.keys())
        swept += 1
    return swept


@pytest.mark.parametrize("name", ["tmaze", "terrain", "lanechange"])
def test_backward_pass_equals_per_node_sweep_on_cold_trees(name, request):
    sc = request.getfixturevalue(f"{name}_scenario")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=0)
    tree = solve(sc.model, sc.initial_state, sc.prior, config).tree
    # Lane change fails at the initial lambda, in both sweeps.
    lams = (REGULARIZATION_INIT, 1.0, 1e3)
    assert _check_sweeps_against_reference(sc.model, tree, lams) >= 2


def test_backward_pass_equals_per_node_sweep_on_a_wide_tree():
    # Four latents over three unequal segments: levels of 1, 4 and 16 nodes.
    model = _evidence_model(1.0)
    lengths = (3, 2, 2)
    u = _nominal_controls(model, lengths, np.random.default_rng(31))
    b0 = Belief(np.array([0.1, 0.2, 0.3, 0.4]))
    tree = forward_pass(model, np.array([0.4, -0.2]), b0, u, None, None, 1.0, lengths)
    assert len(tree.controls) == 1 + 4 + 16
    assert _check_sweeps_against_reference(model, tree, (1e-6, 1.0)) == 2


def test_sweeps_over_one_linearization_equal_fresh_backward_passes(lanechange_scenario):
    sc = lanechange_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=0)
    tree = solve(sc.model, sc.initial_state, sc.prior, config).tree  # the cold tree
    reused = linearize(sc.model, tree)
    # Q_uu of the cold lane-change tree is indefinite at the initial lambda.
    for lin in (reused, linearize(sc.model, tree)):
        with pytest.raises(BackwardFailureError):
            backward_pass(lin, REGULARIZATION_INIT)
    for lam in (1.0, 1e3):
        gains, vms = backward_pass(reused, lam)
        fresh_gains, fresh_vms = backward_pass(linearize(sc.model, tree), lam)
        assert gains.keys() == fresh_gains.keys() == tree.controls.keys()
        for h, (k, K) in gains.items():
            assert _same_bits(k, fresh_gains[h][0])
            assert _same_bits(K, fresh_gains[h][1])
        assert vms.keys() == fresh_vms.keys() == tree.controls.keys()
        for h, vm in vms.items():
            for name in ("dv", "v_s", "v_ss", "cost_to_go"):
                assert _same_bits(getattr(vm, name), getattr(fresh_vms[h], name))


# Cold solves at the CLI's SOLVE_BUDGET: (iterations, repr(cost), SHA-256 of
# repr(iterations), linearizations formed, SHA-256 of the serialized tree as
# json.dumps(tree_to_dict(tree), sort_keys=True)). Changes that make the
# solver faster or simpler keep these values exactly; only a change that
# states why it alters what the solver computes may move them.
COLD_SOLVES = {
    "tmaze": (
        34,
        "290.22395229649095",
        "717edb6433e93a7b797ed85e359f20579641e082b5a91a233a69aeb8c5335e12",
        28,
        "b9e63d9a08b82f79a8998abaaae81f9fe9f6e2994844ae4aa88d84e87c5561f1",
    ),
    "lanechange": (
        56,
        "349.62161102279987",
        "56961575af877ce3d5f05dd0983084a6a498a8c50a67f5a77396d75789afc636",
        57,
        "fc6b710c6257bc6cfedac88d56e00df31be0c475618aa6da38cfd73a9e07efc9",
    ),
    "terrain": (
        18,
        "308.20140500898697",
        "d0952cb9a8b3748eb45c160d6c2dd3a1f8dde16ba72ba557b567592233b0a817",
        19,
        "5037903323e10b053111255a6fd09c6303c17f5fe3211e390f40c23434dd9adf",
    ),
}


@pytest.mark.parametrize("name", sorted(COLD_SOLVES))
def test_cold_solve_is_pinned_and_linearizes_each_accepted_tree_once(
    name, request, monkeypatch
):
    from poddp.cli import SOLVE_BUDGET

    sc = request.getfixturevalue(f"{name}_scenario")
    linearized = []

    def counting_linearize(model, tree):
        linearized.append(tree)
        return original(model, tree)

    original = poddp.solver.linearize
    monkeypatch.setattr(poddp.solver, "linearize", counting_linearize)
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, **SOLVE_BUDGET)
    result = solve(sc.model, sc.initial_state, sc.prior, config)

    iterations, cost, log_hash, linearizations, tree_hash = COLD_SOLVES[name]
    assert len(result.iterations) == iterations
    assert repr(result.cost) == cost
    assert hashlib.sha256(repr(result.iterations).encode()).hexdigest() == log_hash
    serialized = json.dumps(tree_to_dict(result.tree), sort_keys=True)
    assert hashlib.sha256(serialized.encode()).hexdigest() == tree_hash
    # The cold tree and every accepted tree, each once; a rejected step and
    # a lambda retry sweep the linearization they already have.
    accepted = sum(1 for row in result.iterations if row["alpha"] > 0)
    assert len(linearized) == accepted + 1 == linearizations
    assert len({id(tree) for tree in linearized}) == len(linearized)
    assert linearized[-1] is result.tree
