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

import numpy as np

from ..belief import Belief, LatentSet
from ..model import ProblemModel, read_only
from .vehicle import (
    ACCEL,
    PX,
    PY,
    STEER,
    TH,
    V,
    BicycleParams,
    bicycle_jacobians,
    bicycle_step,
    sigmoid,
)

SMOOTH, ROUGH = 0, 1


@dataclass(frozen=True)
class TerrainConfig:
    dt: float
    horizon: int
    segments: int
    vehicle: BicycleParams
    start: np.ndarray
    goal: np.ndarray  # 2D goal point
    rho_rough: float  # resistive coefficient on rough terrain
    transition_y: float  # lateral center of the rough->smooth transition (Smooth case)
    transition_width: float
    process_std: np.ndarray  # per-state-dimension noise std dev
    goal_weight_running: float
    goal_weight_final: float
    speed_weight: float
    desired_speed: float
    steer_weight: float
    accel_weight: float
    prior_smooth: float


def config_from_dict(cfg: dict) -> TerrainConfig:
    return TerrainConfig(
        dt=float(cfg["dt"]),
        horizon=int(cfg["horizon"]),
        segments=int(cfg["segments"]),
        vehicle=BicycleParams(
            wheelbase=float(cfg["wheelbase"]),
            v_max=float(cfg["v_max"]),
            steer_max=float(cfg["steer_max"]),
            accel_max=float(cfg["accel_max"]),
        ),
        start=np.array(
            [
                float(cfg["start_x"]),
                float(cfg["start_y"]),
                float(cfg["start_heading"]),
                float(cfg["start_speed"]),
            ]
        ),
        goal=np.array([float(cfg["goal_x"]), float(cfg["goal_y"])]),
        rho_rough=float(cfg["rho_rough"]),
        transition_y=float(cfg["transition_y"]),
        transition_width=float(cfg["transition_width"]),
        process_std=np.array(
            [
                float(cfg["process_std_x"]),
                float(cfg["process_std_y"]),
                float(cfg["process_std_heading"]),
                float(cfg["process_std_speed"]),
            ]
        ),
        goal_weight_running=float(cfg["goal_weight_running"]),
        goal_weight_final=float(cfg["goal_weight_final"]),
        speed_weight=float(cfg["speed_weight"]),
        desired_speed=float(cfg["desired_speed"]),
        steer_weight=float(cfg["steer_weight"]),
        accel_weight=float(cfg["accel_weight"]),
        prior_smooth=float(cfg["prior_smooth"]),
    )


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
    veh = cfg.vehicle

    def dynamics_mean(x, u, z):
        r = resistive_decel(cfg, x[PY], x[V], z)
        eff = np.array([u[STEER], u[ACCEL] - r])
        return bicycle_step(x, eff, dt, veh)

    def dynamics_jacobians(x, u, z):
        rho, drho = resistance_coefficient(cfg, x[PY], z)
        th = math.tanh(x[V])
        eff = np.array([u[STEER], u[ACCEL] - rho * th])
        f_x, f_u = bicycle_jacobians(x, eff, dt, veh)
        active = f_u[V, ACCEL] / dt if dt > 0 else 0.0  # speed-clamp subgradient
        f_x = f_x.copy()
        f_x[V, PY] += -active * dt * drho * th
        f_x[V, V] += -active * dt * rho * (1.0 - th * th)
        return f_x, f_u

    def observation_mean(x, z):
        return np.zeros(1)

    def observation_noise(x, z):
        return np.ones(1)

    def observation_jacobian(x, z):
        return np.zeros((1, 4))

    def running_cost(x, u, z):
        d = x[:2] - cfg.goal
        return (
            cfg.goal_weight_running * float(d @ d)
            + cfg.speed_weight * (x[V] - cfg.desired_speed) ** 2
            + cfg.steer_weight * u[STEER] ** 2
            + cfg.accel_weight * u[ACCEL] ** 2
        )

    l_xx = np.zeros((4, 4))
    l_xx[:2, :2] = 2.0 * cfg.goal_weight_running * np.eye(2)
    l_xx[V, V] = 2.0 * cfg.speed_weight
    l_xx = read_only(l_xx)
    l_xu = read_only(np.zeros((4, 2)))
    l_uu = read_only(np.diag([2.0 * cfg.steer_weight, 2.0 * cfg.accel_weight]))

    def running_cost_derivatives(x, u, z):
        d = x[:2] - cfg.goal
        l_x = np.zeros(4)
        l_x[:2] = 2.0 * cfg.goal_weight_running * d
        l_x[V] = 2.0 * cfg.speed_weight * (x[V] - cfg.desired_speed)
        l_u = np.array(
            [2.0 * cfg.steer_weight * u[STEER], 2.0 * cfg.accel_weight * u[ACCEL]]
        )
        return l_x, l_u, l_xx, l_xu, l_uu

    def final_cost(x, z):
        d = x[:2] - cfg.goal
        return cfg.goal_weight_final * float(d @ d)

    lf_xx = np.zeros((4, 4))
    lf_xx[:2, :2] = 2.0 * cfg.goal_weight_final * np.eye(2)
    lf_xx = read_only(lf_xx)

    def final_cost_derivatives(x, z):
        lf_x = np.zeros(4)
        lf_x[:2] = 2.0 * cfg.goal_weight_final * (x[:2] - cfg.goal)
        return lf_x, lf_xx

    var = cfg.process_std ** 2
    return ProblemModel(
        state_dim=4,
        control_dim=2,
        obs_dim=1,
        latents=LatentSet(("Smooth", "Rough")),
        dynamics_mean=dynamics_mean,
        observation_mean=observation_mean,
        observation_noise=observation_noise,
        running_cost=running_cost,
        final_cost=final_cost,
        dt=dt,
        dynamics_noise=[var, var],
        dynamics_jacobians=dynamics_jacobians,
        observation_jacobian=observation_jacobian,
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=final_cost_derivatives,
    )


def prior(cfg: TerrainConfig) -> Belief:
    return Belief(np.array([cfg.prior_smooth, 1.0 - cfg.prior_smooth]))
