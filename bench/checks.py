"""Correctness checks computed apart from the program.

Each check takes a solved plan and recomputes what it claims from the
scenario's model callbacks alone: the states by replaying the controls
through `dynamics_mean`, the expected cost by summing the cost callbacks
over the tree with its node beliefs. None of them calls the solver or the
baselines. Every check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import numpy as np

from poddp.baselines import PlannerKind

# Tolerance of the recomputed expected cost: the program sums the same terms
# in another order, so the two agree to a few ulps of the total.
COST_RTOL = 1e-9
# The replay evaluates the very calls the forward pass made.
REPLAY_ATOL = 1e-9
# Half the lateral distance between lane centre and lane edge, as in the
# lane-change acceptance criterion.
IN_LANE_TOL = 0.9


class PlanView:
    """The planning problem a plan was solved on, as seen from the scenario.

    PODDP plans on the scenario itself. MLDDP plans on the most likely
    latent value. PWDDP plans on one state copy per latent value with shared
    controls and costs weighted by the belief held fixed.
    """

    def __init__(self, kind: PlannerKind, model, prior_probs):
        self.kind = kind
        self.model = model
        n, nz = model.state_dim, model.num_latents
        w = np.asarray(prior_probs, dtype=float)
        if kind is PlannerKind.PODDP:
            self.dynamics = model.dynamics_mean
            self.running = model.running_cost
            self.final = model.final_cost
        elif kind is PlannerKind.MLDDP:
            z_ml = int(np.argmax(w))
            self.dynamics = lambda x, u, _z: model.dynamics_mean(x, u, z_ml)
            self.running = lambda x, u, _z: model.running_cost(x, u, z_ml)
            self.final = lambda x, _z: model.final_cost(x, z_ml)
        else:
            copies = [slice(z * n, (z + 1) * n) for z in range(nz)]
            self.dynamics = lambda xs, u, _z: np.concatenate(
                [model.dynamics_mean(xs[sl], u, z) for z, sl in enumerate(copies)]
            )
            self.running = lambda xs, u, _z: sum(
                w[z] * model.running_cost(xs[sl], u, z) for z, sl in enumerate(copies)
            )
            self.final = lambda xs, _z: sum(
                w[z] * model.final_cost(xs[sl], z) for z, sl in enumerate(copies)
            )


def _nodes(tree):
    return sorted(tree.controls, key=lambda h: (len(h), h))


def replay_gap(view: PlanView, tree) -> float:
    """Largest gap between the tree's states and a replay of its controls.

    Within a segment a node's dynamics follow the latent value of the branch
    that created it (the most likely one at the root); at a branch step each
    child starts from the parent's last state moved under its own value.
    """
    gap = 0.0
    z_root = int(np.argmax(tree.beliefs[()]))
    for h in _nodes(tree):
        xs, us = tree.xs[h], tree.controls[h]
        z_dyn = h[-1] if h else z_root
        m = us.shape[0]
        steps = m if tree.is_leaf(h) else m - 1
        for j in range(steps):
            replay = np.asarray(view.dynamics(xs[j], us[j], z_dyn), dtype=float)
            gap = max(gap, float(np.max(np.abs(replay - xs[j + 1]))))
        if not tree.is_leaf(h):
            for z in range(tree.num_latents):
                replay = np.asarray(view.dynamics(xs[m - 1], us[m - 1], z), dtype=float)
                gap = max(gap, float(np.max(np.abs(replay - tree.xs[h + (z,)][0]))))
    return gap


def expected_cost(view: PlanView, tree) -> float:
    """Belief-weighted tree cost, summed node by node.

    A node's weight is the product of the parent beliefs along its history;
    it pays its belief-weighted running costs and, at a leaf, its
    belief-weighted final cost.
    """
    weight = {(): 1.0}
    total = 0.0
    for h in _nodes(tree):
        b = np.asarray(tree.beliefs[h], dtype=float)
        xs, us = tree.xs[h], tree.controls[h]
        terms = [
            b[z] * view.running(xs[j], us[j], z)
            for j in range(us.shape[0])
            for z in range(tree.num_latents)
        ]
        if tree.is_leaf(h):
            terms += [b[z] * view.final(xs[-1], z) for z in range(tree.num_latents)]
        else:
            for z in range(tree.num_latents):
                weight[h + (z,)] = weight[h] * b[z]
        total += weight[h] * float(np.sum(terms))
    return total


def missing_value_models(tree) -> list:
    """Nodes whose value model the solve did not return: their gains were
    not computed on this tree."""
    return [h for h in _nodes(tree) if h not in tree.value_models]


def check_plan(view: PlanView, executable, label: str) -> list:
    """Replay, cost and monotone-descent checks of one solved plan."""
    result = executable.result
    tree = result.tree
    errors = []
    gap = replay_gap(view, tree)
    if not gap <= REPLAY_ATOL:
        errors.append(f"{label}: replayed states differ by {gap:.3e}")
    recomputed = expected_cost(view, tree)
    if not abs(recomputed - result.cost) <= COST_RTOL * max(1.0, abs(result.cost)):
        errors.append(
            f"{label}: expected cost {recomputed!r} recomputed, solve reports {result.cost!r}"
        )
    accepted = [row["cost"] for row in result.iterations if row["alpha"] > 0]
    raised = sum(1 for a, b in zip(accepted, accepted[1:]) if b > a)
    if raised:
        errors.append(f"{label}: {raised} accepted iterations raised the cost")
    return errors


def check_contingency(workload: str, tree, config: dict) -> list:
    """The contingency structure the paper reports for each scenario."""
    if workload == "tmaze":
        from poddp.scenarios.tmaze import LEFT, RIGHT

        left = float(tree.xs[(LEFT, LEFT)][-1][0])
        right = float(tree.xs[(RIGHT, RIGHT)][-1][0])
        if not left < 0.0 < right:
            return [f"tmaze: LEFT/RIGHT leaves end at lateral {left:.3f} / {right:.3f}"]
        return []
    from poddp.scenarios.lane_change import AGGRESSIVE, LON_O, NICE

    lane_y = float(config["lane_y"])
    errors = []
    for z, ahead, label in ((NICE, True, "NICE"), (AGGRESSIVE, False, "AGGRESSIVE")):
        x = tree.xs[(z,)][-1]
        if (x[0] > x[LON_O]) != ahead:
            where = "behind" if ahead else "ahead of"
            errors.append(f"lanechange: {label} leaf ends {where} the other car")
        if not abs(x[1] - lane_y) < IN_LANE_TOL:
            errors.append(f"lanechange: {label} leaf ends off the target lane (y={x[1]:.3f})")
    return errors


def check_ordering(workload: str, means: dict) -> list:
    """On tmaze, PODDP's closed-loop mean cost is below both baselines."""
    if workload != "tmaze":
        return []
    poddp = means[PlannerKind.PODDP.value]
    return [
        f"tmaze: poddp mean {poddp:.3f} not below {k} mean {v:.3f}"
        for k, v in means.items()
        if k != PlannerKind.PODDP.value and not poddp < v
    ]
