"""Rough terrain: dynamical-mode uncertainty.

The terrain exerts a speed-dependent resistive deceleration r = rho * tanh(v).
A binary latent state decides whether the region at larger lateral offset is
smooth (rho falls off sigmoidally in py) or as rough as everywhere else;
the goal lies straight ahead, so probing the region requires a detour.
There is no separate observation channel: evidence about the latent state
enters through the noisy state transitions alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..model import ProblemModel, read_only, uninformative_observations
from .config import ScenarioConfig
from .vehicle import (
    ACCEL,
    PY,
    V,
    bicycle_jacobians,
    bicycle_step,
    sigmoid,
)

SMOOTH, ROUGH = 0, 1


@dataclass(frozen=True)
class TerrainConfig(ScenarioConfig):
    prior_key: ClassVar[str] = "prior_smooth"

    goal_x: float
    goal_y: float
    rho_rough: float  # resistive coefficient on rough terrain
    transition_y: float  # lateral center of the rough->smooth transition (Smooth case)
    transition_width: float
    process_std_x: float  # per-state-dimension noise std dev
    process_std_y: float
    process_std_heading: float
    process_std_speed: float
    goal_weight_running: float
    goal_weight_final: float
    prior_smooth: float


def resistance_coefficient(cfg: TerrainConfig, py: float, z: int):
    """(rho, d rho / d py) at lateral position py under latent z."""
    if z == ROUGH:
        return cfg.rho_rough, 0.0
    t = (py - cfg.transition_y) / cfg.transition_width
    s = sigmoid(t)
    rho = cfg.rho_rough * (1.0 - s)
    drho = -cfg.rho_rough * s * (1.0 - s) / cfg.transition_width
    return float(rho), float(drho)


def resistive_decel(cfg: TerrainConfig, py: float, v: float, z: int) -> float:
    rho, _ = resistance_coefficient(cfg, py, z)
    return rho * math.tanh(v)


def build(cfg: TerrainConfig) -> ProblemModel:
    dt = cfg.dt
    veh = cfg.vehicle()
    goal = np.array([cfg.goal_x, cfg.goal_y])

    def dynamics_mean(x, u, z):
        _, py, _, v = x.tolist()
        steer, accel = u.tolist()
        r = resistive_decel(cfg, py, v, z)
        return bicycle_step(x, np.array([steer, accel - r]), dt, veh)

    def dynamics_jacobians(x, u, z):
        _, py, _, v = x.tolist()
        steer, accel = u.tolist()
        rho, drho = resistance_coefficient(cfg, py, z)
        th = math.tanh(v)
        eff = np.array([steer, accel - rho * th])
        f_x, f_u = bicycle_jacobians(x, eff, dt, veh)
        active = f_u[V, ACCEL] / dt if dt > 0 else 0.0  # speed-clamp subgradient
        f_x = f_x.copy()
        f_x[V, PY] += -active * dt * drho * th
        f_x[V, V] += -active * dt * rho * (1.0 - th * th)
        return f_x, f_u

    def running_cost(x, u, z):
        v = x.tolist()[V]
        steer, accel = u.tolist()
        d = x[:2] - goal
        return (
            cfg.goal_weight_running * float(d @ d)
            + cfg.speed_weight * (v - cfg.desired_speed) ** 2
            + cfg.steer_weight * steer ** 2
            + cfg.accel_weight * accel ** 2
        )

    goal_curvature = 2.0 * cfg.goal_weight_running
    l_xx = np.zeros((4, 4))
    l_xx[:2, :2] = goal_curvature * np.eye(2)
    l_xx[V, V] = 2.0 * cfg.speed_weight
    l_xx = read_only(l_xx)
    l_xu, l_uu = cfg.effort_hessians(4)

    def running_cost_derivatives(x, u, z):
        px, py, _, v = x.tolist()
        steer, accel = u.tolist()
        l_x = np.array(
            [
                goal_curvature * (px - cfg.goal_x),
                goal_curvature * (py - cfg.goal_y),
                0.0,
                2.0 * cfg.speed_weight * (v - cfg.desired_speed),
            ]
        )
        l_u = np.array([2.0 * cfg.steer_weight * steer, 2.0 * cfg.accel_weight * accel])
        return l_x, l_u, l_xx, l_xu, l_uu

    def final_cost(x, z):
        d = x[:2] - goal
        return cfg.goal_weight_final * float(d @ d)

    lf_xx = np.zeros((4, 4))
    lf_xx[:2, :2] = 2.0 * cfg.goal_weight_final * np.eye(2)
    lf_xx = read_only(lf_xx)

    def final_cost_derivatives(x, z):
        px, py, _, _ = x.tolist()
        slope = 2.0 * cfg.goal_weight_final
        return np.array([slope * (px - cfg.goal_x), slope * (py - cfg.goal_y), 0.0, 0.0]), lf_xx

    var = cfg.process_variances()
    return ProblemModel(
        state_dim=4,
        control_dim=2,
        num_latents=2,
        dynamics_mean=dynamics_mean,
        running_cost=running_cost,
        final_cost=final_cost,
        dynamics_jacobians=dynamics_jacobians,
        **uninformative_observations(4),
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=final_cost_derivatives,
        dynamics_noise=[var, var],
    )
