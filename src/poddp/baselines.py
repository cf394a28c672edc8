"""Comparison planners: maximum-likelihood DDP and probability-weighted DDP.

Both reuse the contingency solver with a single-latent (chain) schedule.
MLDDP conditions the model on the most likely latent value; PWDDP stacks one
state copy per latent value, shares the control sequence across copies, and
minimizes the belief-weighted sum of their costs with the belief held fixed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .belief import Belief, logits
from .model import ProblemModel, condition_on_latent, uninformative_observations
from .solver import SolveResult, SolverConfig, solve

ROOT = ()


class PlannerKind(enum.Enum):
    PODDP = "poddp"
    MLDDP = "mlddp"
    PWDDP = "pwddp"


@dataclass
class ExecutablePlan:
    """A solved plan plus the rule for turning it into executed controls.

    `control(t, x, b)` is the root node's control at in-segment step t plus
    the feedback K_t[:, :d.size] @ d, where d is the deviation of the
    realized state, tiled to the nominal state's size (PWDDP's copies),
    from the plan's nominal state, followed by the deviation of b's logits
    when the tree is over b's latent values (PODDP). t counts from the
    start of this plan; without gains there is no feedback.
    """

    result: SolveResult

    @property
    def converged(self) -> bool:
        return self.result.converged

    def control(self, t: int, x: np.ndarray, b: Belief) -> np.ndarray:
        tree = self.result.tree
        u = tree.controls[ROOT][t]
        if ROOT not in tree.gains:
            return u
        x_nom = tree.xs[ROOT][t]
        copies = x_nom.size // x.size
        # np.tile copies even one copy; this runs at every executed step
        d = x - x_nom if copies == 1 else np.tile(x, copies) - x_nom
        if tree.num_latents == b.probs.size:
            d = np.concatenate([d, logits(b.probs) - tree.betas[ROOT]])
        return u + tree.gains[ROOT][1][t][:, : d.size] @ d

    def warm_start(self, steps: int, b: Belief) -> dict:
        """Copies of the controls the next replan starts from, after `steps`
        executed steps and the update to belief `b`. A tree's subtree under
        the most likely child becomes the new tree; a chain drops its
        executed prefix."""
        tree = self.result.tree
        if tree.num_segments > 1:
            z = b.argmax()
            return {h[1:]: u.copy() for h, u in tree.controls.items() if h[:1] == (z,)}
        return {ROOT: tree.controls[ROOT][steps:].copy()}


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
        running_cost=running_cost,
        final_cost=final_cost,
        dynamics_jacobians=dynamics_jacobians,
        # a one-segment chain never branches, so nothing observes it
        **uninformative_observations(n * nz),
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=final_cost_derivatives,
    )


def plan(
    kind: PlannerKind,
    model: ProblemModel,
    x0,
    b0: Belief,
    config: SolverConfig,
    u_init=None,
) -> ExecutablePlan:
    """`kind`'s plan from (x0, b0). PODDP solves the contingency tree; the
    baselines solve a one-segment chain, MLDDP on the most likely latent
    value and PWDDP on the stacked model from x0 copied per latent value."""
    if kind is PlannerKind.MLDDP:
        model = condition_on_latent(model, b0.argmax())  # ties: lowest index
    elif kind is PlannerKind.PWDDP:
        x0 = np.tile(np.asarray(x0, dtype=float), model.num_latents)
        model = stacked_model(model, b0)
    if kind is not PlannerKind.PODDP:
        b0, config = Belief(np.ones(1)), replace(config, segments=1)
    return ExecutablePlan(solve(model, x0, b0, config, u_init=u_init))
