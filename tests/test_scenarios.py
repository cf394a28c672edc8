"""Benchmark scenarios: vehicle, T-maze, terrain, IDM, lane change."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from poddp.belief import Belief, evidence, gaussian_log_density
from poddp.scenarios import build_scenario
from poddp.scenarios import lane_change, terrain, tmaze
from poddp.scenarios.config import ConfigError, apply_overrides, config_hash, default_config, parse_config
from poddp.scenarios.idm import IDMParams, idm_accel, idm_accel_with_partials
from poddp.scenarios.vehicle import (
    PX,
    PY,
    TH,
    V,
    BicycleParams,
    bicycle_jacobians,
    bicycle_step,
    sigmoid,
    softplus,
)
from poddp.scenarios.lane_change import LON_O, V_O
from poddp.solver import SolverConfig, solve

from conftest import numerical_gradient, scenario_with_overrides


# ---------------------------------------------------------------------------
# Bicycle model

THETA_STEP_ORACLE = 0.04013386883418022  # 0.1 * (10 / 2.5) * tan(0.1)


def test_bicycle_straight_line():
    params = BicycleParams()
    x = np.array([1.0, 2.0, 0.3, 6.0])
    x2 = bicycle_step(x, np.zeros(2), 0.1, params)
    assert abs((x2[PY] - x[PY]) - 6.0 * np.sin(0.3) * 0.1) < 1e-12
    assert abs((x2[PX] - x[PX]) - 6.0 * np.cos(0.3) * 0.1) < 1e-12


def test_bicycle_zero_speed_stays_put():
    params = BicycleParams()
    x = np.array([1.0, 2.0, 0.3, 0.0])
    for steer in (-0.3, 0.0, 0.25):
        x2 = bicycle_step(x, np.array([steer, 0.0]), 0.1, params)
        assert x2[PX] == x[PX] and x2[PY] == x[PY]


def test_bicycle_heading_update_oracle():
    params = BicycleParams(wheelbase=2.5)
    x = np.array([0.0, 0.0, 0.0, 10.0])
    x2 = bicycle_step(x, np.array([0.1, 0.0]), 0.1, params)
    assert abs(x2[TH] - THETA_STEP_ORACLE) < 1e-12


SHAPING_POINTS = (0.0, 1e-3, -1e-3, 40.0, -40.0, 800.0, -800.0)


def _closed_form(x):
    """(1 / (1 + e^-x), log(1 + e^x)) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x)
        return float(1 / (1 + (-d).exp())), float((1 + d.exp()).ln())


@pytest.mark.parametrize("x", SHAPING_POINTS)
def test_sigmoid_softplus_match_closed_form_without_warnings(x):
    sig_ref, sp_ref = _closed_form(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig, sp = sigmoid(x), softplus(x)
        sig_neg = sigmoid(-x)
    assert sig == pytest.approx(sig_ref, rel=1e-15, abs=1e-300)
    assert sp == pytest.approx(sp_ref, rel=1e-15, abs=1e-300)
    assert sig + sig_neg == pytest.approx(1.0, rel=0, abs=2.3e-16)


def test_shaping_functions_propagate_non_finite_inputs():
    assert math.isnan(sigmoid(math.nan))
    assert math.isnan(softplus(math.nan))
    assert sigmoid(math.inf) == 1.0 and sigmoid(-math.inf) == 0.0
    assert softplus(math.inf) == math.inf and softplus(-math.inf) == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_bicycle_non_finite_heading_gives_non_finite_output(bad):
    params = BicycleParams()
    x = np.array([0.0, 0.0, bad, 5.0])
    u = np.array([0.1, 0.5])
    assert not np.isfinite(bicycle_step(x, u, 0.1, params)).all()
    f_x, _ = bicycle_jacobians(x, u, 0.1, params)
    assert not np.isfinite(f_x).all()
    nan_steer = np.array([math.nan, 0.0])
    assert np.isnan(bicycle_step(np.array([0.0, 0.0, 0.0, 5.0]), nan_steer, 0.1, params)).any()


def test_bicycle_saturates_at_limits():
    params = BicycleParams(steer_max=0.3, accel_max=2.0, v_max=12.0)
    x = np.array([0.0, 0.0, 0.0, 11.9])
    big = bicycle_step(x, np.array([5.0, 100.0]), 0.1, params)
    clamped = bicycle_step(x, np.array([0.3, 2.0]), 0.1, params)
    np.testing.assert_array_equal(big, clamped)
    assert big[V] <= 12.0


# ---------------------------------------------------------------------------
# T-maze


def test_tmaze_observation_variance_decays(tmaze_scenario):
    cfg = tmaze.TMazeConfig.from_dict(tmaze_scenario.config)
    end_var = tmaze.observation_variance(cfg, cfg.goal_forward)
    assert end_var <= 0.01 * cfg.sigma_level ** 2


def test_tmaze_observation_means_are_goal_labels(tmaze_scenario):
    model = tmaze_scenario.model
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(4) * 5
        np.testing.assert_allclose(model.observation_mean(x, tmaze.LEFT), [-1.0])
        np.testing.assert_allclose(model.observation_mean(x, tmaze.RIGHT), [1.0])


def test_tmaze_cost_mirror_invariant(tmaze_scenario):
    model = tmaze_scenario.model
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = np.array([rng.uniform(-4, 4), rng.uniform(0, 30), np.pi / 2 + rng.uniform(-0.4, 0.4), rng.uniform(0, 12)])
        u = rng.uniform(-0.2, 0.2, size=2)
        xm = x.copy()
        xm[PX] = -x[PX]
        xm[TH] = np.pi - x[TH]
        um = u.copy()
        um[0] = -u[0]
        for z in (0, 1):
            assert abs(model.running_cost(x, u, z) - model.running_cost(xm, um, 1 - z)) < 1e-10
            assert abs(model.final_cost(x, z) - model.final_cost(xm, 1 - z)) < 1e-10


def test_tmaze_latent_swap_mirrors_solution():
    base = build_scenario("tmaze")
    flipped = scenario_with_overrides("tmaze", {"prior_left": "0.51"})
    config = SolverConfig(horizon=base.horizon, segments=base.segments,
                          max_iterations=60, cost_tolerance=1e-9)
    ra = solve(base.model, base.initial_state, base.prior, config)
    rb = solve(flipped.model, flipped.initial_state, flipped.prior, config)
    for h in ra.tree.controls:
        hm = tuple(1 - z for z in h)
        ua, ub = ra.tree.controls[h], rb.tree.controls[hm]
        np.testing.assert_allclose(ua[:, 0], -ub[:, 0], atol=1e-6)  # steer mirrors
        np.testing.assert_allclose(ua[:, 1], ub[:, 1], atol=1e-6)  # accel matches
        np.testing.assert_allclose(ra.tree.xs[h][:, PX], -rb.tree.xs[hm][:, PX], atol=1e-6)


# ---------------------------------------------------------------------------
# Terrain


def test_terrain_rough_resistance_constant(terrain_scenario):
    cfg = terrain.TerrainConfig.from_dict(terrain_scenario.config)
    values = [terrain.resistance_coefficient(cfg, py, terrain.ROUGH)[0] for py in (-5.0, 0.0, 3.0, 10.0)]
    assert all(v == values[0] for v in values)


def test_terrain_zero_speed_no_resistance(terrain_scenario):
    cfg = terrain.TerrainConfig.from_dict(terrain_scenario.config)
    for z in (terrain.SMOOTH, terrain.ROUGH):
        assert terrain.resistive_decel(cfg, 0.0, 0.0, z) == 0.0


def test_terrain_resistive_decel_oracle(terrain_scenario):
    cfg = terrain.TerrainConfig.from_dict(dict(terrain_scenario.config, rho_rough=2.0))
    r = terrain.resistive_decel(cfg, 0.0, 1.0, terrain.ROUGH)
    assert abs(r - 2.0 * np.tanh(1.0)) < 1e-10
    assert abs(r - 1.5232) < 1e-3


def test_terrain_smooth_speed_dominates_rough(terrain_scenario):
    # Lower resistance can only leave the vehicle at least as fast: for
    # identical controls, the Smooth-case speed dominates pointwise.
    sc = terrain_scenario
    model = sc.model
    rng = np.random.default_rng(8)
    for _ in range(100):
        us = np.column_stack(
            [rng.uniform(-0.4, 0.4, sc.horizon), rng.uniform(-1.0, 3.0, sc.horizon)]
        )
        xs = sc.initial_state.copy()
        xr = sc.initial_state.copy()
        for u in us:
            xs = np.asarray(model.dynamics_mean(xs, u, terrain.SMOOTH), float)
            xr = np.asarray(model.dynamics_mean(xr, u, terrain.ROUGH), float)
            assert xs[V] >= xr[V] - 1e-12


def test_terrain_smooth_no_costlier_than_rough(terrain_scenario):
    # For goal-directed excursions through the potentially smooth region
    # (steer out, steer back, then straight), the trajectory is cheaper when
    # the region really is smooth. Aimless control sequences that wander away
    # from the goal can invert this, so the sampled family is goal-directed.
    sc = terrain_scenario
    model = sc.model
    cfg = terrain.TerrainConfig.from_dict(sc.config)
    rng = np.random.default_rng(4)
    horizon = sc.horizon
    third = horizon // 3
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 3000
        amp = rng.uniform(0.1, 0.5)
        steer = np.concatenate(
            [np.full(third, amp), np.full(third, -amp), np.zeros(horizon - 2 * third)]
        )
        us = np.column_stack([steer, rng.uniform(-1.0, 3.0, horizon)])
        costs = {}
        entered = False
        for z in (terrain.SMOOTH, terrain.ROUGH):
            x = sc.initial_state.copy()
            c = 0.0
            for u in us:
                c += model.running_cost(x, u, z)
                x = np.asarray(model.dynamics_mean(x, u, z), float)
                if z == terrain.SMOOTH and x[PY] > cfg.transition_y:
                    entered = True
            c += model.final_cost(x, z)
            costs[z] = c
        if not entered:
            continue
        checked += 1
        assert costs[terrain.SMOOTH] <= costs[terrain.ROUGH] + 1e-9


# ---------------------------------------------------------------------------
# IDM

IDM_EXAMPLE_ORACLE = 0.12  # 1.5 * (1 - (10/15)^4 - (17/20)^2), before smoothing


def _example_params(**kw):
    base = dict(desired_speed=15.0, time_headway=1.5, max_accel=1.5,
                comfort_decel=2.0, min_gap=2.0)
    base.update(kw)
    return IDMParams(**base)


def test_idm_free_road_equilibrium():
    p = _example_params()
    assert abs(idm_accel_with_partials(0.0, 0.0, -30.0, 15.0, 0.0, p)[0]) < 1e-12


def test_idm_free_road_from_rest():
    p = _example_params()
    a = idm_accel_with_partials(0.0, 0.0, -30.0, 0.0, 0.0, p)[0]
    assert abs(a - p.max_accel) < 1e-12


def test_idm_worked_example():
    p = _example_params()
    a = idm_accel_with_partials(20.0, 10.0, 0.0, 10.0, 1.0, p)[0]
    assert abs(a - IDM_EXAMPLE_ORACLE) < 2e-3


def test_idm_partials_match_finite_differences():
    p = _example_params(yield_onset=3.0, gap_floor=4.0)
    rng = np.random.default_rng(7)
    for _ in range(30):
        pt = np.array([
            rng.uniform(-10, 40),   # ego_lon
            rng.uniform(0, 20),     # ego_v
            0.0,                    # other_lon
            rng.uniform(0, 20),     # other_v
            rng.uniform(0, 1),      # overlap
        ])
        _, partials = idm_accel_with_partials(*pt, p)
        f = lambda v: idm_accel_with_partials(v[0], v[1], v[2], v[3], v[4], p)[0]
        fd = numerical_gradient(f, pt)
        assert np.max(np.abs(partials - fd)) < 1e-5


def test_idm_accel_is_the_value_of_idm_accel_with_partials():
    # The dynamics use the value alone; it must be the same float, bit for
    # bit, including where the softplus floor of the gap takes over.
    p = _example_params(yield_onset=3.0, gap_floor=4.0)
    rng = np.random.default_rng(8)
    near_floor = p.gap_floor + np.concatenate(
        [[0.0], rng.uniform(-1e-3, 1e-3, 10), rng.uniform(-1e-9, 1e-9, 10)]
    )
    for gap in np.concatenate([rng.uniform(-10, 40, 30), near_floor]):
        args = (
            float(gap),                   # ego_lon
            float(rng.uniform(0, 20)),    # ego_v
            0.0,                          # other_lon
            float(rng.uniform(0, 20)),    # other_v
            float(rng.uniform(0, 1)),     # overlap
        )
        value = idm_accel(*args, p)
        assert value.hex() == idm_accel_with_partials(*args, p)[0].hex(), args


def test_idm_monotone_in_closing_speed():
    # Decreasing leader speed raises the closing speed; accel must not rise.
    # Valid on the branch where the desired gap s* is nonnegative (for
    # strongly negative closing speeds s* goes negative and the quadratic
    # interaction term turns back up, as in the standard IDM).
    p = _example_params()
    gap, other_v = 15.0, 12.0
    accels = [
        idm_accel_with_partials(gap, ego_v, 0.0, other_v, 1.0, p)[0]
        for ego_v in np.linspace(17.0, 0.0, 25)
    ]
    diffs = np.diff(accels)
    assert np.all(diffs <= 1e-12)


# ---------------------------------------------------------------------------
# Lane change


@pytest.mark.parametrize("name", ["terrain", "lanechange"])
def test_unobserved_scenarios_take_evidence_from_transitions_alone(name):
    # Their observation channel is uninformative: what `evidence`
    # adds to the transition log density is the same under every latent.
    sc = build_scenario(name)
    model = sc.model
    rng = np.random.default_rng(6)
    x = sc.initial_state + 0.1 * rng.standard_normal(model.state_dim)
    u = np.array([0.1, -0.2])
    x_next = model.dynamics_mean(x, u, 0) + 0.01 * rng.standard_normal(model.state_dim)
    means = np.array([model.dynamics_mean(x, u, z) for z in range(model.num_latents)])
    transition = np.array(
        [
            gaussian_log_density(x_next, means[z], model.dynamics_noise_for(z))
            for z in range(model.num_latents)
        ]
    )
    for o in (np.zeros(1), rng.standard_normal(1)):
        total = evidence(o, x_next, means, model)[0]
        assert np.ptp(total) > 1e-3  # the transitions do tell the latents apart
        observed = total - transition
        np.testing.assert_allclose(observed, observed[0], rtol=0, atol=1e-9)


def test_lane_change_other_accelerates_when_ego_far_behind(lanechange_scenario):
    model = lanechange_scenario.model
    x = np.array([-200.0, 0.0, 0.0, 10.0, 0.0, 10.0])
    x2 = np.asarray(model.dynamics_mean(x, np.zeros(2), lane_change.AGGRESSIVE), float)
    assert x2[V_O] > x[V_O]


def test_lane_change_far_other_makes_latents_irrelevant():
    sc = scenario_with_overrides("lanechange", {"other_start_lon": "10000.0"})
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments,
                          max_iterations=60, cost_tolerance=1e-9)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    tree = result.tree
    np.testing.assert_allclose(tree.controls[(0,)], tree.controls[(1,)], atol=1e-6)
    # And the plan coincides with the maximum-likelihood single-chain plan.
    from poddp.baselines import PlannerKind, plan

    ml = plan(PlannerKind.MLDDP, sc.model, sc.initial_state, sc.prior, config)
    chain = np.vstack([tree.controls[()], tree.controls[(1,)]])
    np.testing.assert_allclose(chain, ml.result.tree.controls[()], atol=1e-6)


def test_lane_change_tree_branches_ahead_and_behind(lanechange_scenario):
    sc = lanechange_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments,
                          max_iterations=40, cost_tolerance=1e-6)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    tree = result.tree
    x_nice = tree.xs[(lane_change.NICE,)][-1]
    x_aggr = tree.xs[(lane_change.AGGRESSIVE,)][-1]
    assert x_nice[PX] > x_nice[LON_O]  # merges ahead of the Nice driver
    assert x_aggr[PX] < x_aggr[LON_O]  # yields to the Aggressive driver


@pytest.mark.parametrize("name", ["tmaze", "terrain", "lanechange"])
def test_scenario_functions_finite_on_operating_box(name, request):
    sc = request.getfixturevalue(f"{name}_scenario")
    model = sc.model
    rng = np.random.default_rng(9)
    for _ in range(1000):
        x = np.array(sc.initial_state, float)
        x[:4] += rng.uniform([-20, -20, -1.5, -5], [40, 20, 1.5, 20])
        if model.state_dim == 6:
            x[4] = x[0] + rng.uniform(-40, 40)
            x[5] = rng.uniform(0, 20)
        u = rng.uniform(-1, 1, size=2) * sc.control_high
        z = int(rng.integers(model.num_latents))
        values = [
            model.running_cost(x, u, z),
            model.final_cost(x, z),
            *np.atleast_1d(model.dynamics_mean(x, u, z)),
        ]
        assert np.isfinite(values).all()


# ---------------------------------------------------------------------------
# Config plumbing


def test_parse_config_types():
    cfg = parse_config("a = 3\nb = 1.5\n# comment\nc = -2.0\n")
    assert cfg == {"a": 3, "b": 1.5, "c": -2.0}
    assert isinstance(cfg["a"], int)


def test_apply_overrides_rejects_unknown_key():
    cfg = default_config("tmaze")
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"not_a_key": "1.0"})


def test_config_hash_stable_and_sensitive():
    cfg = default_config("tmaze")
    assert config_hash(cfg) == config_hash(dict(cfg))
    changed = apply_overrides(cfg, {"sigma_level": "1.1"})
    assert config_hash(changed) != config_hash(cfg)


def test_build_scenario_rejects_unknown_name():
    with pytest.raises(ConfigError):
        build_scenario("nope")
