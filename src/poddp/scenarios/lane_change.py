"""Lane change around another driver of unknown disposition.

The planner's vehicle wants to merge into an adjacent lane occupied by
another vehicle. The other vehicle follows an IDM law whose parameters are
set by a binary latent state: a Nice driver yields to the merging vehicle
(and prefers a lower cruise speed), an Aggressive one ignores it. As in the
rough-terrain scenario there is no separate observation channel; evidence
about the latent state comes from the other vehicle's noisy motion.

State layout: the four bicycle coordinates of the planner's vehicle followed
by the other vehicle's longitudinal position and speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..model import ProblemModel, read_only, uninformative_observations
from .config import ScenarioConfig
from .idm import IDMParams, idm_accel, idm_accel_with_partials
from .vehicle import (
    PX,
    PY,
    TH,
    V,
    bicycle_jacobians,
    bicycle_step,
    sigmoid,
)

NICE, AGGRESSIVE = 0, 1
LON_O, V_O = 4, 5  # other-vehicle state indices
STATE_DIM = 6


@dataclass(frozen=True)
class LaneChangeConfig(ScenarioConfig):
    prior_key: ClassVar[str] = "prior_nice"

    other_start_lon: float
    other_start_speed: float
    other_speed_max: float
    lane_y: float  # lateral center of the target lane
    overlap_width: float  # lateral scale of the lane-occupancy fade
    idm_time_headway: float  # IDM parameters shared between dispositions
    idm_max_accel: float
    idm_comfort_decel: float
    idm_min_gap: float
    idm_yield_onset: float
    idm_gap_floor: float
    nice_desired_speed: float
    aggressive_desired_speed: float
    lane_end: float  # longitude where the starting lane runs out
    lane_end_gain: float  # escalation of the lane cost past lane_end
    lane_end_width: float  # longitudinal scale of the escalation
    lane_weight_running: float
    lane_weight_final: float
    heading_weight: float
    collision_weight: float
    collision_lon_scale: float
    collision_lat_scale: float
    process_std_x: float  # per-state-dimension noise std dev
    process_std_y: float
    process_std_heading: float
    process_std_speed: float
    process_std_other_lon: float
    process_std_other_speed: float
    prior_nice: float

    def initial_state(self) -> np.ndarray:
        return np.concatenate(
            [super().initial_state(), [self.other_start_lon, self.other_start_speed]]
        )


def idm_params(cfg: LaneChangeConfig):
    """The other driver's IDM parameters under each latent: (Nice, Aggressive)."""

    def idm(desired_speed: float, yielding: float) -> IDMParams:
        return IDMParams(
            desired_speed=desired_speed,
            time_headway=cfg.idm_time_headway,
            max_accel=cfg.idm_max_accel,
            comfort_decel=cfg.idm_comfort_decel,
            min_gap=cfg.idm_min_gap,
            yielding=yielding,
            yield_onset=cfg.idm_yield_onset,
            gap_floor=cfg.idm_gap_floor,
        )

    return idm(cfg.nice_desired_speed, 1.0), idm(cfg.aggressive_desired_speed, 0.0)


def lane_overlap(cfg: LaneChangeConfig, py: float):
    """Occupancy of the target lane as a function of lateral position.

    Returns (overlap, d overlap / d py); 0 in the starting lane, 1 at the
    target lane center.
    """
    t = (py - 0.5 * cfg.lane_y) / cfg.overlap_width
    s = sigmoid(t)
    return float(s), float(s * (1.0 - s) / cfg.overlap_width)


def build(cfg: LaneChangeConfig) -> ProblemModel:
    dt = cfg.dt
    veh = cfg.vehicle()
    idms = idm_params(cfg)

    def dynamics_mean(x, u, z):
        px, py, _, v, lon_o, v_o = x.tolist()
        a = idm_accel(px, v, lon_o, v_o, lane_overlap(cfg, py)[0], idms[z])
        ego = bicycle_step(x[:4], u, dt, veh)
        v_o_next = min(max(v_o + dt * a, 0.0), cfg.other_speed_max)
        return np.concatenate([ego, [lon_o + dt * v_o, v_o_next]])

    def dynamics_jacobians(x, u, z):
        px, py, _, v, lon_o, v_o = x.tolist()
        ov, dov = lane_overlap(cfg, py)
        a, g = idm_accel_with_partials(px, v, lon_o, v_o, ov, idms[z])
        # chain partials into state coordinates (px, py, th, v, lon_o, v_o)
        da = np.array([g[0], g[4] * dov, 0.0, g[1], g[2], g[3]])
        ego_fx, ego_fu = bicycle_jacobians(x[:4], u, dt, veh)
        f_x = np.zeros((STATE_DIM, STATE_DIM))
        f_u = np.zeros((STATE_DIM, 2))
        f_x[:4, :4] = ego_fx
        f_u[:4, :] = ego_fu
        f_x[LON_O, LON_O] = 1.0
        f_x[LON_O, V_O] = dt
        v_o_next = v_o + dt * a
        active = 1.0 if 0.0 < v_o_next < cfg.other_speed_max else 0.0
        f_x[V_O, :] = active * dt * da
        f_x[V_O, V_O] += active
        return f_x, f_u

    ax = 1.0 / cfg.collision_lon_scale ** 2
    ay = 1.0 / cfg.collision_lat_scale ** 2

    h_exp = np.zeros((STATE_DIM, STATE_DIM))  # Hessian of the exponent
    h_exp[PX, PX] = h_exp[LON_O, LON_O] = -2.0 * ax
    h_exp[PX, LON_O] = h_exp[LON_O, PX] = 2.0 * ax
    h_exp[PY, PY] = -2.0 * ay
    h_exp = read_only(h_exp)

    def _collision_value(px, py, lon_o):
        """Gaussian-bump proximity penalty."""
        dx = px - lon_o
        dy = py - cfg.lane_y
        return cfg.collision_weight * math.exp(-(dx * dx) * ax - (dy * dy) * ay)

    def _collision(px, py, lon_o):
        """Gaussian-bump proximity penalty; value, gradient, Hessian."""
        dx = px - lon_o
        dy = py - cfg.lane_y
        c = _collision_value(px, py, lon_o)
        # gradient of the exponent
        g_exp = np.array([-2.0 * dx * ax, -2.0 * dy * ay, 0.0, 0.0, 2.0 * dx * ax, 0.0])
        grad = c * g_exp
        hess = c * (np.outer(g_exp, g_exp) + h_exp)
        return c, grad, hess

    def _lane_urgency(px):
        """The starting lane runs out near lane_end: the lane-keeping weight
        escalates smoothly with longitude. Returns (weight, ds/dpx, d2s/dpx2
        scaled by the gain)."""
        s = sigmoid((px - cfg.lane_end) / cfg.lane_end_width)
        w = cfg.lane_weight_running * (1.0 + cfg.lane_end_gain * s)
        g1 = cfg.lane_weight_running * cfg.lane_end_gain * s * (1.0 - s) / cfg.lane_end_width
        g2 = (
            cfg.lane_weight_running
            * cfg.lane_end_gain
            * s
            * (1.0 - s)
            * (1.0 - 2.0 * s)
            / cfg.lane_end_width ** 2
        )
        return w, g1, g2

    def running_cost(x, u, z):
        px, py, th, v, lon_o, _ = x.tolist()
        steer, accel = u.tolist()
        c = _collision_value(px, py, lon_o)
        w, _, _ = _lane_urgency(px)
        return (
            w * (py - cfg.lane_y) ** 2
            + cfg.heading_weight * th ** 2
            + cfg.speed_weight * (v - cfg.desired_speed) ** 2
            + cfg.steer_weight * steer ** 2
            + cfg.accel_weight * accel ** 2
            + c
        )

    l_xu, l_uu = cfg.effort_hessians(STATE_DIM)

    def running_cost_derivatives(x, u, z):
        px, py, th, v, lon_o, _ = x.tolist()
        steer, accel = u.tolist()
        _, l_x, l_xx = _collision(px, py, lon_o)
        w, w1, w2 = _lane_urgency(px)
        e = py - cfg.lane_y
        l_x[PX] += w1 * e * e
        l_x[PY] += 2.0 * w * e
        l_x[TH] += 2.0 * cfg.heading_weight * th
        l_x[V] += 2.0 * cfg.speed_weight * (v - cfg.desired_speed)
        l_xx[PX, PX] += w2 * e * e
        l_xx[PX, PY] += 2.0 * w1 * e
        l_xx[PY, PX] += 2.0 * w1 * e
        l_xx[PY, PY] += 2.0 * w
        l_xx[TH, TH] += 2.0 * cfg.heading_weight
        l_xx[V, V] += 2.0 * cfg.speed_weight
        l_u = np.array([2.0 * cfg.steer_weight * steer, 2.0 * cfg.accel_weight * accel])
        return l_x, l_u, l_xx, l_xu, l_uu

    def final_cost(x, z):
        px, py, th, _, lon_o, _ = x.tolist()
        c = _collision_value(px, py, lon_o)
        return (
            cfg.lane_weight_final * (py - cfg.lane_y) ** 2
            + cfg.heading_weight * th ** 2
            + c
        )

    def final_cost_derivatives(x, z):
        px, py, th, _, lon_o, _ = x.tolist()
        _, lf_x, lf_xx = _collision(px, py, lon_o)
        lf_x[PY] += 2.0 * cfg.lane_weight_final * (py - cfg.lane_y)
        lf_x[TH] += 2.0 * cfg.heading_weight * th
        lf_xx[PY, PY] += 2.0 * cfg.lane_weight_final
        lf_xx[TH, TH] += 2.0 * cfg.heading_weight
        return lf_x, lf_xx

    var = cfg.process_variances()
    return ProblemModel(
        state_dim=STATE_DIM,
        control_dim=2,
        num_latents=2,
        dynamics_mean=dynamics_mean,
        running_cost=running_cost,
        final_cost=final_cost,
        dynamics_jacobians=dynamics_jacobians,
        **uninformative_observations(STATE_DIM),
        running_cost_derivatives=running_cost_derivatives,
        final_cost_derivatives=final_cost_derivatives,
        dynamics_noise=[var, var],
    )
