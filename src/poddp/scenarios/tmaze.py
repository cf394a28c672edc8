"""T-maze: goal-location uncertainty.

A vehicle drives up a walled corridor that splits left and right. A binary
latent state places the goal in one arm; a scalar observation channel (mean
-1 for Left, +1 for Right) becomes more reliable as the vehicle progresses
up the corridor. Dynamics are deterministic and latent-independent, so all
evidence flows through the observation channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..model import ProblemModel, read_only
from .config import ScenarioConfig
from .vehicle import (
    PX,
    PY,
    V,
    bicycle_jacobians,
    bicycle_step,
    sigmoid,
    softplus,
)

LEFT, RIGHT = 0, 1
OBS_MEANS = (-1.0, 1.0)


@dataclass(frozen=True)
class TMazeConfig(ScenarioConfig):
    prior_key: ClassVar[str] = "prior_left"

    goal_lateral: float  # |x| of the two goals; Left is -x, Right is +x
    goal_forward: float  # y of both goals (the maze end)
    corridor_half_width: float
    corridor_open_y: float  # walls fade beyond this y
    wall_weight: float
    wall_sharpness: float  # softplus slope on the wall boundary
    gate_width: float  # y-extent of the wall fade
    goal_weight_running: float
    goal_weight_final: float
    sigma_level: float  # observation uncertainty level
    obs_decay_rate: float
    obs_decay_mid: float
    obs_var_floor_frac: float
    prior_left: float


def goals(cfg: TMazeConfig):
    """The goal points (x, y) of Left and Right, in latent order."""
    return [
        np.array([sign * cfg.goal_lateral, cfg.goal_forward]) for sign in (-1.0, 1.0)
    ]


def observation_variance(cfg: TMazeConfig, py: float) -> float:
    """Smoothly decaying variance of the goal cue as the vehicle advances."""
    decay = sigmoid(cfg.obs_decay_rate * (cfg.obs_decay_mid - py))
    return cfg.sigma_level ** 2 * (decay + cfg.obs_var_floor_frac)


def _wall_value(cfg: TMazeConfig, px: float, py: float) -> float:
    """The wall penalty, whose derivatives `_wall_derivatives` gives."""
    s = cfg.wall_sharpness
    hw = cfg.corridor_half_width
    f_pos = softplus(s * (px - hw))
    f_neg = softplus(s * (-px - hw))
    gate = sigmoid((cfg.corridor_open_y - py) / cfg.gate_width)
    return cfg.wall_weight * gate * (f_pos * f_pos + f_neg * f_neg)


def _wall_derivatives(cfg: TMazeConfig, px: float, py: float):
    """Gradient (d/dpx, d/dpy) and Hessian entries (pxpx, pxpy, pypy) of the
    wall penalty: the gate g(py), 1 inside the corridor and fading at the
    opening, times the squared-softplus profile p(px)."""
    s = cfg.wall_sharpness
    hw = cfg.corridor_half_width
    p = 0.0
    p1 = 0.0
    p2 = 0.0
    for sign in (1.0, -1.0):
        a = s * (sign * px - hw)
        f = softplus(a)
        sig = sigmoid(a)
        fp = sign * s * sig
        fpp = s * s * sig * (1.0 - sig)
        p += f * f
        p1 += 2.0 * f * fp
        p2 += 2.0 * (fp * fp + f * fpp)
    t = (cfg.corridor_open_y - py) / cfg.gate_width
    g = sigmoid(t)
    g1 = -g * (1.0 - g) / cfg.gate_width
    g2 = g * (1.0 - g) * (1.0 - 2.0 * g) / cfg.gate_width ** 2
    w = cfg.wall_weight
    return (w * g * p1, w * g1 * p), (w * g * p2, w * g1 * p1, w * g2 * p)


def build(cfg: TMazeConfig) -> ProblemModel:
    dt = cfg.dt
    veh = cfg.vehicle()
    goal_xy = [tuple(g.tolist()) for g in goals(cfg)]

    def dynamics_mean(x, u, z):
        return bicycle_step(x, u, dt, veh)

    def dynamics_jacobians(x, u, z):
        return bicycle_jacobians(x, u, dt, veh)

    def observation_mean(x, z):
        return np.array([OBS_MEANS[z]])

    def observation_noise(x, z):
        return np.array([observation_variance(cfg, x.tolist()[PY])])

    def observation_jacobian(x, z):
        return np.zeros((1, 4))

    def running_cost(x, u, z):
        px, py, _, v = x.tolist()
        steer, accel = u.tolist()
        gx, gy = goal_xy[z]
        dx = px - gx
        dy = py - gy
        return (
            cfg.goal_weight_running * (dx * dx + dy * dy)
            + _wall_value(cfg, px, py)
            + cfg.speed_weight * (v - cfg.desired_speed) ** 2
            + cfg.steer_weight * steer ** 2
            + cfg.accel_weight * accel ** 2
        )

    goal_curvature = 2.0 * cfg.goal_weight_running
    l_xx_quadratic = np.zeros((4, 4))
    l_xx_quadratic[:2, :2] = goal_curvature * np.eye(2)
    l_xx_quadratic[V, V] = 2.0 * cfg.speed_weight
    l_xx_quadratic = read_only(l_xx_quadratic)
    l_xu, l_uu = cfg.effort_hessians(4)

    def running_cost_derivatives(x, u, z):
        px, py, _, v = x.tolist()
        steer, accel = u.tolist()
        gx, gy = goal_xy[z]
        (wall_x, wall_y), (wall_xx, wall_xy, wall_yy) = _wall_derivatives(cfg, px, py)
        l_x = np.array(
            [
                goal_curvature * (px - gx) + wall_x,
                goal_curvature * (py - gy) + wall_y,
                0.0,
                2.0 * cfg.speed_weight * (v - cfg.desired_speed),
            ]
        )
        l_xx = l_xx_quadratic.copy()
        # The goal term has no cross curvature: 0.0 + wall_xy, not wall_xy,
        # so that a wall term of -0.0 enters as 0.0.
        l_xx[PX, PX] = goal_curvature + wall_xx
        l_xx[PX, PY] = l_xx[PY, PX] = 0.0 + wall_xy
        l_xx[PY, PY] = goal_curvature + wall_yy
        l_u = np.array([2.0 * cfg.steer_weight * steer, 2.0 * cfg.accel_weight * accel])
        return l_x, l_u, l_xx, l_xu, l_uu

    def final_cost(x, z):
        px, py, _, _ = x.tolist()
        gx, gy = goal_xy[z]
        dx = px - gx
        dy = py - gy
        return cfg.goal_weight_final * (dx * dx + dy * dy)

    lf_xx = np.zeros((4, 4))
    lf_xx[:2, :2] = 2.0 * cfg.goal_weight_final * np.eye(2)
    lf_xx = read_only(lf_xx)

    def final_cost_derivatives(x, z):
        px, py, _, _ = x.tolist()
        gx, gy = goal_xy[z]
        slope = 2.0 * cfg.goal_weight_final
        return np.array([slope * (px - gx), slope * (py - gy), 0.0, 0.0]), lf_xx

    return ProblemModel(
        state_dim=4,
        control_dim=2,
        num_latents=2,
        dynamics_mean=dynamics_mean,
        observation_mean=observation_mean,
        observation_noise=observation_noise,
        running_cost=running_cost,
        final_cost=final_cost,
        dynamics_jacobians=dynamics_jacobians,
        observation_jacobian=observation_jacobian,
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=final_cost_derivatives,
        dynamics_noise=None,  # deterministic, latent-independent dynamics
    )
