"""Problem definition interface and numerical differentiation.

A `ProblemModel` packages the latent-conditioned dynamics, observation and
cost functions of a planning problem together with their derivatives and
noise models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# Relative step for central differences; balances truncation and round-off
# for the state magnitudes (1-100) occurring in the shipped scenarios.
FD_REL_STEP = 1e-5


class DifferentiationError(ArithmeticError):
    """Non-finite function evaluation during numerical differentiation."""


def numerical_jacobian(f: Callable[[np.ndarray], np.ndarray], point) -> np.ndarray:
    """Central-difference Jacobian of a vector function at `point`."""
    p = np.asarray(point, dtype=float)
    h = FD_REL_STEP * np.maximum(1.0, np.abs(p))
    cols = []
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        hi = np.atleast_1d(np.asarray(f(p + dp), dtype=float))
        lo = np.atleast_1d(np.asarray(f(p - dp), dtype=float))
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise DifferentiationError(
                f"non-finite evaluation while differentiating coordinate {i}"
            )
        cols.append((hi - lo) / (2.0 * h[i]))
    return np.column_stack(cols)


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

    All callables are deterministic, and the derivative callbacks return
    float arrays; noise enters only through the declared covariances.
    Callbacks receive the state and control as 1-D float arrays, which may
    be views into larger arrays, so a callback must not write to them.
    The latent values are the indices 0..num_latents-1.
    `dynamics_noise` holds one entry per latent value; ``None`` marks
    deterministic dynamics (no transition evidence).
    """

    state_dim: int
    control_dim: int
    num_latents: int
    dynamics_mean: Callable  # (x, u, z) -> x'
    observation_mean: Callable  # (x, z) -> o
    observation_noise: Callable  # (x, z) -> covariance (scalar/diag/full)
    running_cost: Callable  # (x, u, z) -> float
    final_cost: Callable  # (x, z) -> float
    dynamics_jacobians: Callable  # (x, u, z) -> (f_x, f_u)
    observation_jacobian: Callable  # (x, z) -> g_x
    running_cost_derivatives: Callable  # (x, u, z) -> (l_x, l_u, l_xx, l_xu, l_uu)
    final_cost_derivatives: Callable  # (x, z) -> (lf_x, lf_xx)
    dynamics_noise: Optional[Sequence] = None  # per-z covariance or None

    def __post_init__(self):
        if self.num_latents < 1:
            raise ValueError("a model needs at least one latent value")

    def dynamics_noise_for(self, z: int):
        if self.dynamics_noise is None:
            return None
        return self.dynamics_noise[z]


def condition_on_latent(model: ProblemModel, z: int) -> ProblemModel:
    """Restrict a model to a single latent value (|Z| = 1).

    Used by the maximum-likelihood baseline and by single-chain reductions.
    """
    noise = None if model.dynamics_noise is None else (model.dynamics_noise_for(z),)
    return ProblemModel(
        state_dim=model.state_dim,
        control_dim=model.control_dim,
        num_latents=1,
        dynamics_mean=lambda x, u, _z, _f=model.dynamics_mean: _f(x, u, z),
        observation_mean=lambda x, _z, _f=model.observation_mean: _f(x, z),
        observation_noise=lambda x, _z, _f=model.observation_noise: _f(x, z),
        running_cost=lambda x, u, _z, _f=model.running_cost: _f(x, u, z),
        final_cost=lambda x, _z, _f=model.final_cost: _f(x, z),
        dynamics_jacobians=lambda x, u, _z, _f=model.dynamics_jacobians: _f(x, u, z),
        observation_jacobian=lambda x, _z, _f=model.observation_jacobian: _f(x, z),
        running_cost_derivatives=(
            lambda x, u, _z, _f=model.running_cost_derivatives: _f(x, u, z)
        ),
        final_cost_derivatives=lambda x, _z, _f=model.final_cost_derivatives: _f(x, z),
        dynamics_noise=noise,
    )
