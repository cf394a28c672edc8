"""Shared fixtures and independent reference implementations.

The oracles here (finite-horizon Riccati recursion, plain single-chain DDP)
are written against textbook formulations and deliberately share no code
with the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest

from poddp.model import FD_REL_STEP, DifferentiationError, ProblemModel

# Wider step for differentiating a finite-difference gradient a second time:
# the inner gradient carries ~1e-11 roundoff, so the outer step must be large
# enough not to amplify it.
FD_HESS_REL_STEP = 1e-3


# ---------------------------------------------------------------------------
# Finite-difference oracles


def numerical_gradient(f, point) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    p = np.asarray(point, dtype=float)
    h = FD_REL_STEP * np.maximum(1.0, np.abs(p))
    g = np.zeros_like(p)
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        hi = float(f(p + dp))
        lo = float(f(p - dp))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise DifferentiationError(
                f"non-finite evaluation while differentiating coordinate {i}"
            )
        g[i] = (hi - lo) / (2.0 * h[i])
    return g


def numerical_gradient_jacobian(grad, point) -> np.ndarray:
    """Central-difference Jacobian of a gradient function, at the wider
    FD_HESS_REL_STEP: second derivatives from first-derivative oracles."""
    p = np.asarray(point, dtype=float)
    h = FD_HESS_REL_STEP * np.maximum(1.0, np.abs(p))
    cols = []
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        cols.append((grad(p + dp) - grad(p - dp)) / (2.0 * h[i]))
    return np.column_stack(cols)


def symmetrize(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def scenario_with_overrides(name: str, overrides: dict):
    """A shipped scenario with some of its config keys set to new values."""
    from poddp.scenarios import build_scenario
    from poddp.scenarios.config import apply_overrides, default_config

    return build_scenario(name, apply_overrides(default_config(name), overrides))


# ---------------------------------------------------------------------------
# LQR problem and Riccati oracle


@dataclass
class LQRProblem:
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    qf: np.ndarray
    x0: np.ndarray
    horizon: int


def make_lqr_problem(state_dim=4, control_dim=2, horizon=30, seed=7) -> LQRProblem:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((state_dim, state_dim))
    a *= 0.95 / max(abs(np.linalg.eigvals(a)))  # stable
    b = rng.standard_normal((state_dim, control_dim))
    q = np.eye(state_dim) * 0.5
    r = np.eye(control_dim) * 0.2
    qf = np.eye(state_dim) * 2.0
    x0 = rng.standard_normal(state_dim)
    return LQRProblem(a, b, q, r, qf, x0, horizon)


def riccati_optimal_cost(p: LQRProblem) -> float:
    """Finite-horizon discrete-time Riccati recursion; optimal total cost
    of sum_t 0.5 x'Qx + 0.5 u'Ru plus terminal 0.5 x'Qf x."""
    big_p = p.qf.copy()
    for _ in range(p.horizon):
        btp = p.b.T @ big_p
        gain = np.linalg.solve(p.r + btp @ p.b, btp @ p.a)
        acl = p.a - p.b @ gain
        big_p = p.q + gain.T @ p.r @ gain + acl.T @ big_p @ acl
    return float(0.5 * p.x0 @ big_p @ p.x0)


def lqr_problem_model(p: LQRProblem) -> ProblemModel:
    n, nu = p.b.shape
    return ProblemModel(
        state_dim=n,
        control_dim=nu,
        num_latents=1,
        dynamics_mean=lambda x, u, z: p.a @ x + p.b @ u,
        observation_mean=lambda x, z: np.zeros(1),
        observation_noise=lambda x, z: np.ones(1),
        running_cost=lambda x, u, z: float(0.5 * x @ p.q @ x + 0.5 * u @ p.r @ u),
        final_cost=lambda x, z: float(0.5 * x @ p.qf @ x),
        dynamics_jacobians=lambda x, u, z: (p.a, p.b),
        observation_jacobian=lambda x, z: np.zeros((1, n)),
        running_cost_derivatives=lambda x, u, z: (
            p.q @ x, p.r @ u, p.q, np.zeros((n, nu)), p.r
        ),
        final_cost_derivatives=lambda x, z: (p.qf @ x, p.qf),
    )


# ---------------------------------------------------------------------------
# Plain single-chain DDP reference (iLQR with Levenberg regularization)


def _ref_running_derivs(model: ProblemModel, x, u):
    l_x, l_u, l_xx, l_xu, l_uu = model.running_cost_derivatives(x, u, 0)
    return l_x, l_u, symmetrize(l_xx), l_xu, symmetrize(l_uu)


def _ref_final_derivs(model: ProblemModel, x):
    lf_x, lf_xx = model.final_cost_derivatives(x, 0)
    return lf_x, symmetrize(lf_xx)


def ref_rollout(model: ProblemModel, x0, us):
    xs = [np.asarray(x0, float)]
    for u in us:
        xs.append(np.asarray(model.dynamics_mean(xs[-1], u, 0), float))
    return np.asarray(xs)


def ref_trajectory_cost(model: ProblemModel, xs, us) -> float:
    c = sum(model.running_cost(xs[j], us[j], 0) for j in range(len(us)))
    return float(c + model.final_cost(xs[-1], 0))


def ref_backward(model: ProblemModel, xs, us, lam: float):
    """Plain DDP/iLQR backward pass; returns per-step (k, K)."""
    n = len(us)
    v_x, v_xx = _ref_final_derivs(model, xs[-1])
    ks: List[np.ndarray] = [None] * n
    bigks: List[np.ndarray] = [None] * n
    for j in reversed(range(n)):
        f_x, f_u = model.dynamics_jacobians(xs[j], us[j], 0)
        l_x, l_u, l_xx, l_xu, l_uu = _ref_running_derivs(model, xs[j], us[j])
        q_x = l_x + f_x.T @ v_x
        q_u = l_u + f_u.T @ v_x
        q_xx = l_xx + f_x.T @ v_xx @ f_x
        q_xu = l_xu + f_x.T @ v_xx @ f_u
        q_uu = l_uu + f_u.T @ v_xx @ f_u
        q_uu_reg = q_uu + lam * np.eye(q_uu.shape[0])
        chol = np.linalg.cholesky(q_uu_reg)  # raises if not PD
        rhs = np.column_stack([q_u, q_xu.T])
        sol = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        k, bigk = -sol[:, 0], -sol[:, 1:]
        v_x = q_x + bigk.T @ q_uu_reg @ k + bigk.T @ q_u + q_xu @ k
        v_xx = q_xx + bigk.T @ q_uu_reg @ bigk + bigk.T @ q_xu.T + q_xu @ bigk
        v_xx = 0.5 * (v_xx + v_xx.T)
        ks[j], bigks[j] = k, bigk
    return ks, bigks


def ref_ddp_solve(
    model: ProblemModel,
    x0,
    horizon: int,
    max_iterations: int = 200,
    cost_tolerance: float = 1e-12,
    gradient_tolerance: float = 1e-10,
    u_init: Optional[np.ndarray] = None,
):
    """Reference single-chain DDP. Returns (xs, us, cost, converged)."""
    us = np.zeros((horizon, model.control_dim)) if u_init is None else np.array(u_init)
    xs = ref_rollout(model, x0, us)
    cost = ref_trajectory_cost(model, xs, us)
    lam = 1e-6
    converged = False
    for _ in range(max_iterations):
        while True:
            try:
                ks, bigks = ref_backward(model, xs, us, lam)
                break
            except np.linalg.LinAlgError:
                lam *= 10.0
                if lam > 1e10:
                    return xs, us, cost, False
        if max(float(np.max(np.abs(k))) for k in ks) < gradient_tolerance:
            converged = True
            break
        accepted = False
        for alpha in [0.5 ** i for i in range(11)]:
            new_us = np.empty_like(us)
            x = np.asarray(x0, float)
            new_xs = [x]
            diverged = False
            for j in range(horizon):
                u = us[j] + alpha * ks[j] + bigks[j] @ (x - xs[j])
                new_us[j] = u
                x = np.asarray(model.dynamics_mean(x, u, 0), float)
                if not np.isfinite(x).all():
                    diverged = True
                    break
                new_xs.append(x)
            if diverged:
                continue
            new_cost = ref_trajectory_cost(model, np.asarray(new_xs), new_us)
            if np.isfinite(new_cost) and new_cost < cost:
                rel = (cost - new_cost) / max(1.0, abs(cost))
                xs, us, cost = np.asarray(new_xs), new_us, new_cost
                lam = max(lam / 2.0, 1e-9)
                accepted = True
                if rel < cost_tolerance:
                    converged = True
                break
        if converged:
            break
        if not accepted:
            lam *= 10.0
            if lam > 1e10:
                break
    return xs, us, cost, converged


# ---------------------------------------------------------------------------
# Small synthetic latent models for structural tests


def make_latent_linear_model(nz: int, seed=3) -> ProblemModel:
    """Tiny linear model with z-dependent drift and observation means."""
    rng = np.random.default_rng(seed)
    n, nu = 2, 1
    a = np.eye(n) * 0.9
    b = rng.standard_normal((n, nu)) * 0.5
    drifts = [rng.standard_normal(n) * 0.1 for _ in range(nz)]
    obs_means = [np.array([float(z)]) for z in range(nz)]
    return ProblemModel(
        state_dim=n,
        control_dim=nu,
        num_latents=nz,
        dynamics_mean=lambda x, u, z: a @ x + b @ u + drifts[z],
        observation_mean=lambda x, z: obs_means[z] + 0.3 * x[:1],
        observation_noise=lambda x, z: np.ones(1),
        running_cost=lambda x, u, z: float(0.5 * x @ x + 0.5 * u @ u),
        final_cost=lambda x, z: float(x @ x),
        dynamics_jacobians=lambda x, u, z: (a, b),
        observation_jacobian=lambda x, z: np.array([[0.3, 0.0]]),
        running_cost_derivatives=lambda x, u, z: (
            x, u, np.eye(n), np.zeros((n, nu)), np.eye(nu)
        ),
        final_cost_derivatives=lambda x, z: (2.0 * x, 2.0 * np.eye(n)),
    )


@pytest.fixture(scope="session")
def lqr():
    return make_lqr_problem()


@pytest.fixture(scope="session")
def tmaze_scenario():
    from poddp.scenarios import build_scenario

    return build_scenario("tmaze")


@pytest.fixture(scope="session")
def terrain_scenario():
    from poddp.scenarios import build_scenario

    return build_scenario("terrain")


@pytest.fixture(scope="session")
def lanechange_scenario():
    from poddp.scenarios import build_scenario

    return build_scenario("lanechange")
