"""Problem-model derivatives: numerical differentiation and scenario Jacobians."""

import dataclasses

import numpy as np
import pytest

from poddp.model import ProblemModel, numerical_jacobian
from poddp.scenarios import build_scenario
from poddp.scenarios.vehicle import PX, BicycleParams, bicycle_jacobians, bicycle_step

from conftest import numerical_gradient, numerical_gradient_jacobian, symmetrize


def test_numerical_jacobian_linear_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    np.testing.assert_allclose(numerical_jacobian(lambda v: a @ v, x), a, atol=1e-9)


def test_numerical_jacobian_identity():
    for x in (np.zeros(3), np.array([10.0, -2.0, 0.5])):
        np.testing.assert_allclose(
            numerical_jacobian(lambda v: v.copy(), x), np.eye(3), atol=1e-9
        )


def _quadratic_model(q, r):
    n, nu = q.shape[0], r.shape[0]
    return ProblemModel(
        state_dim=n,
        control_dim=nu,
        num_latents=2,
        dynamics_mean=lambda x, u, z: 0.9 * x,
        observation_mean=lambda x, z: np.zeros(1),
        observation_noise=lambda x, z: np.ones(1),
        running_cost=lambda x, u, z: float(0.5 * x @ q @ x + 0.5 * u @ r @ u),
        final_cost=lambda x, z: float(0.5 * x @ q @ x),
        dynamics_jacobians=lambda x, u, z: (0.9 * np.eye(n), np.zeros((n, nu))),
        observation_jacobian=lambda x, z: np.zeros((1, n)),
        running_cost_derivatives=lambda x, u, z: (q @ x, r @ u, q, np.zeros((n, nu)), r),
        final_cost_derivatives=lambda x, z: (q @ x, q),
    )


def test_model_needs_a_latent_value():
    model = _quadratic_model(np.eye(2), np.eye(1))
    with pytest.raises(ValueError):
        dataclasses.replace(model, num_latents=0)


@pytest.mark.parametrize(
    "noise",
    [
        [np.ones(2), None],  # one latent without transition noise
        [np.ones(2)],  # fewer rows than latent values
        [np.ones(2)] * 3,  # more rows than latent values
        [np.ones(3), np.ones(3)],  # rows longer than the state
        [np.ones(1), np.ones(1)],  # rows shorter than the state
    ],
    ids=["none_row", "too_few_rows", "too_many_rows", "long_rows", "short_rows"],
)
def test_dynamics_noise_of_the_wrong_shape_is_rejected(noise):
    model = _quadratic_model(np.eye(2), np.eye(1))
    with pytest.raises(ValueError, match="dynamics_noise"):
        dataclasses.replace(model, dynamics_noise=noise)


def test_dynamics_noise_is_stored_as_one_float_array():
    model = _quadratic_model(np.eye(2), np.eye(1))
    v = [0.5, 2]
    noisy = dataclasses.replace(model, dynamics_noise=[v, v])
    assert isinstance(noisy.dynamics_noise, np.ndarray)
    assert noisy.dynamics_noise.dtype == float
    np.testing.assert_array_equal(noisy.dynamics_noise, [[0.5, 2.0], [0.5, 2.0]])
    np.testing.assert_array_equal(noisy.dynamics_noise_for(1), [0.5, 2.0])
    assert model.dynamics_noise is None and model.dynamics_noise_for(0) is None


def test_quadratic_cost_derivatives_exact():
    # The finite-difference oracles the tests check derivatives against
    # recover a quadratic's exact derivatives.
    rng = np.random.default_rng(2)
    q = np.diag([1.0, 2.0, 0.5])
    r = np.diag([0.3, 1.5])
    model = _quadratic_model(q, r)
    x, u = rng.standard_normal(3), rng.standard_normal(2)
    grad_x = lambda xx: numerical_gradient(lambda p: model.running_cost(p, u, 0), xx)
    grad_u = lambda uu: numerical_gradient(lambda p: model.running_cost(x, p, 0), uu)
    l_xx = symmetrize(numerical_gradient_jacobian(grad_x, x))
    l_uu = symmetrize(numerical_gradient_jacobian(grad_u, u))
    exact = model.running_cost_derivatives(x, u, 0)
    for got, want in zip((grad_x(x), grad_u(u), l_xx, l_uu), exact[:3] + exact[4:]):
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_z_independent_dynamics_identical_jacobians(tmaze_scenario):
    model = tmaze_scenario.model
    x, u = np.array([0.4, 5.0, 1.4, 7.0]), np.array([0.1, -0.5])
    f_x0, f_u0 = model.dynamics_jacobians(x, u, 0)
    f_x1, f_u1 = model.dynamics_jacobians(x, u, 1)
    np.testing.assert_array_equal(f_x0, f_x1)
    np.testing.assert_array_equal(f_u0, f_u1)


def test_derivative_providers_deterministic():
    # The callbacks return constant arrays built once per scenario; a call
    # that wrote into one would change the next call's result.
    for name in ("tmaze", "terrain", "lanechange"):
        sc = build_scenario(name)
        model = sc.model
        x, u = np.array(sc.initial_state, dtype=float), np.array([0.1, 0.2])
        x[1] += 1.0

        def providers():
            return (
                model.dynamics_jacobians(x, u, 0)
                + model.running_cost_derivatives(x, u, 0)
                + model.final_cost_derivatives(x, 0)
            )

        first = [np.array(a) for a in providers()]
        for a, b in zip(first, providers()):
            np.testing.assert_array_equal(a, b, err_msg=name)


def test_bicycle_analytic_jacobian_matches_numerical():
    params = BicycleParams()
    x = np.array([0.0, 0.0, 0.0, 10.0])
    u = np.array([0.0, 0.0])
    f_x, f_u = bicycle_jacobians(x, u, 0.1, params)
    num_fx = numerical_jacobian(lambda xx: bicycle_step(xx, u, 0.1, params), x)
    num_fu = numerical_jacobian(lambda uu: bicycle_step(x, uu, 0.1, params), u)
    np.testing.assert_allclose(f_x, num_fx, atol=1e-6)
    np.testing.assert_allclose(f_u, num_fu, atol=1e-6)


def _operating_samples(name, scenario, rng, n=100):
    """Random (x, u, z) inside the scenario's documented operating box,
    away from actuator/speed saturation kinks."""
    model = scenario.model
    lo = 0.8 * scenario.control_low
    hi = 0.8 * scenario.control_high
    for _ in range(n):
        u = lo + rng.random(model.control_dim) * (hi - lo)
        x = np.array(scenario.initial_state, dtype=float)
        x[0] += rng.uniform(-3, 10)
        x[1] += rng.uniform(-3, 5)
        x[2] += rng.uniform(-0.3, 0.3)
        x[3] = rng.uniform(2.0, 15.0)
        if name == "lanechange":
            x[4] = x[0] + rng.uniform(-15, 15)
            x[5] = rng.uniform(2.0, 15.0)
        z = rng.integers(model.num_latents)
        yield x, u, int(z)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


def test_scenario_jacobians_match_numerical():
    rng = np.random.default_rng(11)
    for name in ("tmaze", "terrain", "lanechange"):
        scenario = build_scenario(name)
        model = scenario.model
        for x, u, z in _operating_samples(name, scenario, rng):
            f_x, f_u = model.dynamics_jacobians(x, u, z)
            num_fx = numerical_jacobian(lambda xx: model.dynamics_mean(xx, u, z), x)
            num_fu = numerical_jacobian(lambda uu: model.dynamics_mean(x, uu, z), u)
            assert _rel_err(f_x, num_fx) < 1e-4, name
            assert _rel_err(f_u, num_fu) < 1e-4, name
            g_x = model.observation_jacobian(x, z)
            num_gx = numerical_jacobian(lambda xx: model.observation_mean(xx, z), x)
            assert _rel_err(g_x, num_gx) < 1e-4, name


def test_scenario_cost_gradients_match_numerical():
    rng = np.random.default_rng(12)
    for name in ("tmaze", "terrain", "lanechange"):
        scenario = build_scenario(name)
        model = scenario.model
        for x, u, z in _operating_samples(name, scenario, rng, n=30):
            l_x, l_u, l_xx, l_xu, l_uu = model.running_cost_derivatives(x, u, z)
            num_lx = numerical_gradient(lambda xx: model.running_cost(xx, u, z), x)
            num_lu = numerical_gradient(lambda uu: model.running_cost(x, uu, z), u)
            assert _rel_err(l_x, num_lx) < 1e-4, name
            assert _rel_err(l_u, num_lu) < 1e-4, name
            lf_x, lf_xx = model.final_cost_derivatives(x, z)
            num_lfx = numerical_gradient(lambda xx: model.final_cost(xx, z), x)
            assert _rel_err(lf_x, num_lfx) < 1e-4, name


def test_tmaze_centerline_lateral_gradient_zero(tmaze_scenario):
    model = tmaze_scenario.model
    x = np.array([0.0, 5.0, np.pi / 2.0, 8.0])
    u = np.zeros(2)
    l_x_expected = 0.5 * (
        np.asarray(model.running_cost_derivatives(x, u, 0)[0])
        + np.asarray(model.running_cost_derivatives(x, u, 1)[0])
    )
    assert abs(l_x_expected[PX]) < 1e-10
