"""Problem definition interface and numerical differentiation utilities.

A `ProblemModel` packages the latent-conditioned dynamics, observation and
cost functions of a planning problem together with their noise models.
Scenarios may register analytic derivatives; anything not registered is
differentiated numerically with central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .belief import LatentSet

# Relative step for central differences; balances truncation and round-off
# for the state magnitudes (1-100) occurring in the shipped scenarios.
FD_REL_STEP = 1e-5
# Wider step for differentiating a finite-difference gradient a second time:
# the inner gradient carries ~1e-11 roundoff, so the outer step must be large
# enough not to amplify it.
FD_HESS_REL_STEP = 1e-3


class DifferentiationError(ArithmeticError):
    """Non-finite function evaluation during numerical differentiation."""

    def __init__(self, message: str, coordinate: Optional[int] = None):
        super().__init__(message)
        self.coordinate = coordinate


def _fd_steps(point: np.ndarray, rel_step: float = FD_REL_STEP) -> np.ndarray:
    return rel_step * np.maximum(1.0, np.abs(point))


def numerical_jacobian(
    f: Callable[[np.ndarray], np.ndarray], point, rel_step: float = FD_REL_STEP
) -> np.ndarray:
    """Central-difference Jacobian of a vector function at `point`."""
    p = np.asarray(point, dtype=float)
    h = _fd_steps(p, rel_step)
    cols = []
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        hi = np.atleast_1d(np.asarray(f(p + dp), dtype=float))
        lo = np.atleast_1d(np.asarray(f(p - dp), dtype=float))
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise DifferentiationError(
                f"non-finite evaluation while differentiating coordinate {i}",
                coordinate=i,
            )
        cols.append((hi - lo) / (2.0 * h[i]))
    return np.column_stack(cols)


def numerical_gradient(f: Callable[[np.ndarray], float], point) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    p = np.asarray(point, dtype=float)
    h = _fd_steps(p)
    g = np.zeros_like(p)
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        hi = float(f(p + dp))
        lo = float(f(p - dp))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise DifferentiationError(
                f"non-finite evaluation while differentiating coordinate {i}",
                coordinate=i,
            )
        g[i] = (hi - lo) / (2.0 * h[i])
    return g


def symmetrize(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def read_only(values) -> np.ndarray:
    """A float array that cannot be written: a constant a scenario builds
    once and returns from every derivative call."""
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ProblemModel:
    """Latent-conditioned planning problem (POMDP with constant discrete
    hidden state, fully observed continuous state).

    All callables are deterministic; noise enters only through the declared
    covariances. `dynamics_noise` holds one entry per latent value; ``None``
    marks deterministic dynamics (no transition evidence).
    """

    state_dim: int
    control_dim: int
    obs_dim: int
    latents: LatentSet
    dynamics_mean: Callable  # (x, u, z) -> x'
    observation_mean: Callable  # (x, z) -> o
    observation_noise: Callable  # (x, z) -> covariance (scalar/diag/full)
    running_cost: Callable  # (x, u, z) -> float
    final_cost: Callable  # (x, z) -> float
    dt: float
    dynamics_noise: Optional[Sequence] = None  # per-z covariance or None
    # Optional analytic derivative providers; numerical fallbacks otherwise.
    dynamics_jacobians: Optional[Callable] = None  # (x, u, z) -> (f_x, f_u)
    observation_jacobian: Optional[Callable] = None  # (x, z) -> g_x
    running_cost_derivatives: Optional[Callable] = None  # -> (l_x, l_u, l_xx, l_xu, l_uu)
    final_cost_derivatives: Optional[Callable] = None  # (x, z) -> (lf_x, lf_xx)

    @property
    def num_latents(self) -> int:
        return len(self.latents)

    def dynamics_noise_for(self, z: int):
        if self.dynamics_noise is None:
            return None
        return self.dynamics_noise[z]

    def expected_running_cost(self, x, u, probs) -> float:
        return float(
            sum(probs[z] * self.running_cost(x, u, z) for z in range(self.num_latents))
        )

    def expected_final_cost(self, x, probs) -> float:
        return float(
            sum(probs[z] * self.final_cost(x, z) for z in range(self.num_latents))
        )


def dynamics_jacs(model: ProblemModel, x, u, z: int):
    """(f_x, f_u) of the dynamics mean at (x, u, z)."""
    if model.dynamics_jacobians is not None:
        f_x, f_u = model.dynamics_jacobians(x, u, z)
        return np.asarray(f_x, dtype=float), np.asarray(f_u, dtype=float)
    f_x = numerical_jacobian(lambda xx: model.dynamics_mean(xx, u, z), x)
    f_u = numerical_jacobian(lambda uu: model.dynamics_mean(x, uu, z), u)
    return f_x, f_u


def observation_jac(model: ProblemModel, x, z: int) -> np.ndarray:
    """Jacobian of the observation mean at (x, z)."""
    if model.observation_jacobian is not None:
        return np.asarray(model.observation_jacobian(x, z), dtype=float)
    return numerical_jacobian(lambda xx: model.observation_mean(xx, z), x)


def running_cost_derivs(model: ProblemModel, x, u, z: int):
    """(l_x, l_u, l_xx, l_xu, l_uu) of the running cost at (x, u, z).

    Analytic Hessians are returned as the scenario builds them; the
    finite-difference fallback forms them from differences of gradients
    and symmetrizes them.
    """
    if model.running_cost_derivatives is not None:
        return tuple(
            np.asarray(d, dtype=float) for d in model.running_cost_derivatives(x, u, z)
        )
    grad_x = lambda xx, uu: numerical_gradient(lambda p: model.running_cost(p, uu, z), xx)
    grad_u = lambda xx, uu: numerical_gradient(lambda p: model.running_cost(xx, p, z), uu)
    l_xx = numerical_jacobian(lambda xx: grad_x(xx, u), x, FD_HESS_REL_STEP)
    l_xu = numerical_jacobian(lambda uu: grad_x(x, uu), u, FD_HESS_REL_STEP)
    l_uu = numerical_jacobian(lambda uu: grad_u(x, uu), u, FD_HESS_REL_STEP)
    return grad_x(x, u), grad_u(x, u), symmetrize(l_xx), l_xu, symmetrize(l_uu)


def final_cost_derivs(model: ProblemModel, x, z: int):
    """(gradient, Hessian) of the final cost at (x, z); a finite-difference
    Hessian is symmetrized."""
    x = np.asarray(x, dtype=float)
    if model.final_cost_derivatives is not None:
        lf_x, lf_xx = model.final_cost_derivatives(x, z)
        return np.asarray(lf_x, dtype=float), np.asarray(lf_xx, dtype=float)
    grad = lambda xx: numerical_gradient(lambda p: model.final_cost(p, z), xx)
    return grad(x), symmetrize(numerical_jacobian(grad, x, FD_HESS_REL_STEP))


def condition_on_latent(model: ProblemModel, z: int) -> ProblemModel:
    """Restrict a model to a single latent value (|Z| = 1).

    Used by the maximum-likelihood baseline and by single-chain reductions.
    """
    label = model.latents.labels[z]
    noise = None if model.dynamics_noise is None else (model.dynamics_noise_for(z),)
    return ProblemModel(
        state_dim=model.state_dim,
        control_dim=model.control_dim,
        obs_dim=model.obs_dim,
        latents=LatentSet((label,)),
        dynamics_mean=lambda x, u, _z, _f=model.dynamics_mean: _f(x, u, z),
        observation_mean=lambda x, _z, _f=model.observation_mean: _f(x, z),
        observation_noise=lambda x, _z, _f=model.observation_noise: _f(x, z),
        running_cost=lambda x, u, _z, _f=model.running_cost: _f(x, u, z),
        final_cost=lambda x, _z, _f=model.final_cost: _f(x, z),
        dt=model.dt,
        dynamics_noise=noise,
        dynamics_jacobians=None
        if model.dynamics_jacobians is None
        else (lambda x, u, _z, _f=model.dynamics_jacobians: _f(x, u, z)),
        observation_jacobian=None
        if model.observation_jacobian is None
        else (lambda x, _z, _f=model.observation_jacobian: _f(x, z)),
        running_cost_derivatives=None
        if model.running_cost_derivatives is None
        else (lambda x, u, _z, _f=model.running_cost_derivatives: _f(x, u, z)),
        final_cost_derivatives=None
        if model.final_cost_derivatives is None
        else (lambda x, _z, _f=model.final_cost_derivatives: _f(x, z)),
    )
