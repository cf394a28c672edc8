"""Belief-space trajectory optimization over discrete latent states.

Core pieces: a latent-belief representation (`poddp.belief`), a problem
definition interface (`poddp.model`), the trajectory-tree solver
(`poddp.solver`), two heuristic baseline planners (`poddp.baselines`),
three driving benchmark scenarios (`poddp.scenarios`) and a seeded
closed-loop evaluation harness (`poddp.harness`).
"""

from .belief import Belief, bayes_update, logits
from .model import ProblemModel, numerical_jacobian
from .solver import (
    GainSchedule,
    SolveResult,
    SolverConfig,
    backward_pass,
    evaluate_tree_cost,
    forward_pass,
    linearize,
    optimize_control,
    solve,
)
from .tree import QuadraticValueModel, TrajectoryTree

__all__ = [
    "Belief",
    "bayes_update",
    "logits",
    "ProblemModel",
    "numerical_jacobian",
    "GainSchedule",
    "SolveResult",
    "SolverConfig",
    "backward_pass",
    "evaluate_tree_cost",
    "forward_pass",
    "linearize",
    "optimize_control",
    "solve",
    "QuadraticValueModel",
    "TrajectoryTree",
]
