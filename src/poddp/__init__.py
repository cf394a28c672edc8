"""Belief-space trajectory optimization over discrete latent states.

Core pieces: a latent-belief representation (`poddp.belief`), a problem
definition interface (`poddp.model`), the trajectory-tree solver
(`poddp.solver`), two heuristic baseline planners (`poddp.baselines`),
three driving benchmark scenarios (`poddp.scenarios`) and a seeded
closed-loop evaluation harness (`poddp.harness`).
"""
