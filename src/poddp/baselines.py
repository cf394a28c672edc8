"""Comparison planners: maximum-likelihood DDP and probability-weighted DDP.

Both reuse the contingency solver with a single-latent (chain) schedule.
MLDDP conditions the model on the most likely latent value; PWDDP stacks one
state copy per latent value, shares the control sequence across copies, and
minimizes the belief-weighted sum of their costs with the belief held fixed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .belief import Belief, logits
from .model import ProblemModel, condition_on_latent
from .solver import SolveResult, SolverConfig, solve

ROOT = ()


class PlannerKind(enum.Enum):
    PODDP = "poddp"
    MLDDP = "mlddp"
    PWDDP = "pwddp"


@dataclass
class ExecutablePlan:
    """A solved plan plus the rule for turning it into executed controls.

    `control(t, x, b)` evaluates the planned control at in-segment step t
    with feedback on the realized state x and belief b; t counts from the
    start of this plan.
    """

    kind: PlannerKind
    result: SolveResult
    converged: bool
    planned_cost: float
    _control_fn: Callable[[int, np.ndarray, Belief], np.ndarray]

    def control(self, t: int, x: np.ndarray, b: Belief) -> np.ndarray:
        return self._control_fn(t, x, b)


def _chain_config(config: SolverConfig) -> SolverConfig:
    """The same solver settings with a single-segment schedule."""
    return replace(config, segments=1)


def _executable(
    kind: PlannerKind, result: SolveResult, width: int, deviation
) -> ExecutablePlan:
    """The plan of a solve: the root node's controls, plus feedback
    K[:, :width] @ deviation(t, x, b) at the steps that have gains."""
    tree = result.tree

    def control_fn(t: int, x: np.ndarray, b: Belief) -> np.ndarray:
        u = tree.controls[ROOT][t]
        gain = tree.gains_feedback.get((ROOT, t))
        if gain is None:
            return u
        return u + gain[:, :width] @ deviation(t, x, b)

    return ExecutablePlan(
        kind=kind,
        result=result,
        converged=result.converged,
        planned_cost=result.cost,
        _control_fn=control_fn,
    )


def poddp_plan(
    model: ProblemModel, x0, b0: Belief, config: SolverConfig, u_init=None
) -> ExecutablePlan:
    result = solve(model, x0, b0, config, u_init=u_init)
    tree = result.tree
    x_nom, beta_nom = tree.xs[ROOT], tree.betas[ROOT]

    def deviation(t, x, b):
        return np.concatenate([x - x_nom[t], logits(b.probs) - beta_nom[t]])

    width = model.state_dim + model.num_latents
    return _executable(PlannerKind.PODDP, result, width, deviation)


def mlddp_plan(
    model: ProblemModel, x0, b0: Belief, config: SolverConfig, u_init=None
) -> ExecutablePlan:
    z_star = b0.argmax()  # ties break toward the lowest index
    conditioned = condition_on_latent(model, z_star)
    result = solve(
        conditioned, x0, Belief(np.ones(1)), _chain_config(config), u_init=u_init
    )
    x_nom = result.tree.xs[ROOT]
    # the conditioned belief coordinate never deviates
    return _executable(
        PlannerKind.MLDDP, result, model.state_dim, lambda t, x, b: x - x_nom[t]
    )


def _unobserved(xs, z):
    """The observation callbacks of a stacked model: it is solved as a
    one-segment chain, which never branches, so nothing observes it."""
    raise NotImplementedError("a stacked model is never observed")


def stacked_model(model: ProblemModel, b: Belief) -> ProblemModel:
    """One state copy per latent value, shared controls, belief-weighted cost."""
    n = model.state_dim
    nz = model.num_latents
    w = b.probs

    def split(xs):
        return [xs[i * n : (i + 1) * n] for i in range(nz)]

    def dynamics_mean(xs, u, _z):
        return np.concatenate(
            [model.dynamics_mean(x, u, z) for z, x in enumerate(split(xs))]
        )

    def dynamics_jacobians(xs, u, _z):
        f_x = np.zeros((n * nz, n * nz))
        f_u = np.zeros((n * nz, model.control_dim))
        for z, x in enumerate(split(xs)):
            jx, ju = model.dynamics_jacobians(x, u, z)
            sl = slice(z * n, (z + 1) * n)
            f_x[sl, sl] = jx
            f_u[sl, :] = ju
        return f_x, f_u

    def running_cost(xs, u, _z):
        return float(
            sum(w[z] * model.running_cost(x, u, z) for z, x in enumerate(split(xs)))
        )

    def running_cost_derivatives(xs, u, _z):
        l_x = np.zeros(n * nz)
        l_u = np.zeros(model.control_dim)
        l_xx = np.zeros((n * nz, n * nz))
        l_xu = np.zeros((n * nz, model.control_dim))
        l_uu = np.zeros((model.control_dim, model.control_dim))
        for z, x in enumerate(split(xs)):
            gx, gu, gxx, gxu, guu = model.running_cost_derivatives(x, u, z)
            sl = slice(z * n, (z + 1) * n)
            l_x[sl] = w[z] * gx
            l_u += w[z] * gu
            l_xx[sl, sl] = w[z] * gxx
            l_xu[sl, :] = w[z] * gxu
            l_uu += w[z] * guu
        return l_x, l_u, l_xx, l_xu, l_uu

    def final_cost(xs, _z):
        return float(
            sum(w[z] * model.final_cost(x, z) for z, x in enumerate(split(xs)))
        )

    def final_cost_derivatives(xs, _z):
        lf_x = np.zeros(n * nz)
        lf_xx = np.zeros((n * nz, n * nz))
        for z, x in enumerate(split(xs)):
            gx, gxx = model.final_cost_derivatives(x, z)
            sl = slice(z * n, (z + 1) * n)
            lf_x[sl] = w[z] * gx
            lf_xx[sl, sl] = w[z] * gxx
        return lf_x, lf_xx

    return ProblemModel(
        state_dim=n * nz,
        control_dim=model.control_dim,
        num_latents=1,
        dynamics_mean=dynamics_mean,
        observation_mean=_unobserved,
        observation_noise=_unobserved,
        running_cost=running_cost,
        final_cost=final_cost,
        dynamics_jacobians=dynamics_jacobians,
        observation_jacobian=_unobserved,
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=final_cost_derivatives,
    )


def pwddp_plan(
    model: ProblemModel, x0, b0: Belief, config: SolverConfig, u_init=None
) -> ExecutablePlan:
    n = model.state_dim
    nz = model.num_latents
    stacked = stacked_model(model, b0)
    xs0 = np.tile(np.asarray(x0, dtype=float), nz)
    result = solve(stacked, xs0, Belief(np.ones(1)), _chain_config(config), u_init=u_init)
    x_nom = result.tree.xs[ROOT]
    # every hypothesis copy sees the same realized state
    return _executable(
        PlannerKind.PWDDP, result, n * nz, lambda t, x, b: np.tile(x, nz) - x_nom[t]
    )


_PLANNERS = {
    PlannerKind.PODDP: poddp_plan,
    PlannerKind.MLDDP: mlddp_plan,
    PlannerKind.PWDDP: pwddp_plan,
}


def plan(
    kind: PlannerKind,
    model: ProblemModel,
    x0,
    b0: Belief,
    config: SolverConfig,
    u_init=None,
) -> ExecutablePlan:
    return _PLANNERS[kind](model, x0, b0, config, u_init=u_init)
