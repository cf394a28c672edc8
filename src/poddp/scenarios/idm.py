"""Intelligent Driver Model with a smooth leader-identification boundary.

The classic IDM acceleration law is modified so the interaction term fades
smoothly (instead of switching) as the candidate leader drops behind or
leaves the lane: the gap divisor is floored through a softplus and the whole
interaction term is weighted by sigmoid(gap) * lane overlap. A yielding flag
switches the interaction off entirely for drivers that do not slow down for
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vehicle import sigmoid, softplus

GAP_SMOOTHNESS = 2.0  # m, scale of the leader-boundary sigmoid


@dataclass(frozen=True)
class IDMParams:
    desired_speed: float  # v0, m/s
    time_headway: float  # s
    max_accel: float  # a, m/s^2
    comfort_decel: float  # b, m/s^2
    min_gap: float  # s0, m
    yielding: float = 1.0  # 1: slows for a leader; 0: ignores it
    yield_onset: float = 0.0  # m, gap at which the leader starts to count
    gap_floor: float = 0.5  # m, smooth floor of the gap divisor

    def __post_init__(self):
        for name in ("desired_speed", "time_headway", "max_accel", "comfort_decel", "min_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _idm_law(ego_lon, ego_v, other_lon, other_v, other_lane_overlap, p: IDMParams):
    """The acceleration and the intermediate terms its partials reuse:
    (accel, c, gap - gap_floor, s_eff, leader sigmoid, interaction weight,
    s_star / s_eff)."""
    gap = ego_lon - other_lon
    c = 2.0 * math.sqrt(p.max_accel * p.comfort_decel)
    s_star = p.min_gap + other_v * p.time_headway + other_v * (other_v - ego_v) / c
    g_arg = gap - p.gap_floor
    s_eff = p.gap_floor + softplus(g_arg)
    bsig = sigmoid((gap - p.yield_onset) / GAP_SMOOTHNESS)
    w = bsig * other_lane_overlap * p.yielding
    ratio = s_star / s_eff
    free = 1.0 - (other_v / p.desired_speed) ** 4
    accel = p.max_accel * (free - w * ratio * ratio)
    return float(accel), c, g_arg, s_eff, bsig, w, ratio


def idm_accel(ego_lon, ego_v, other_lon, other_v, other_lane_overlap, params: IDMParams):
    """The acceleration of `idm_accel_with_partials` without its partials."""
    return _idm_law(ego_lon, ego_v, other_lon, other_v, other_lane_overlap, params)[0]


def idm_accel_with_partials(
    ego_lon, ego_v, other_lon, other_v, other_lane_overlap, params: IDMParams
):
    """Acceleration of the IDM-controlled vehicle with the planner's vehicle
    as its (smoothly identified) candidate leader, and its partials.

    `other_lane_overlap` in [0, 1] scales how much the candidate leader
    occupies the IDM vehicle's lane. Returns
    (accel, d accel / d (ego_lon, ego_v, other_lon, other_v, overlap)).
    """
    p = params
    accel, c, g_arg, s_eff, bsig, w, ratio = _idm_law(
        ego_lon, ego_v, other_lon, other_v, other_lane_overlap, p
    )
    dseff_dgap = sigmoid(g_arg)
    dw_dgap = bsig * (1.0 - bsig) / GAP_SMOOTHNESS * other_lane_overlap * p.yielding
    dw_dov = bsig * p.yielding

    dsstar_dov_v = p.time_headway + (2.0 * other_v - ego_v) / c
    dsstar_degov = -other_v / c
    dratio2_dgap = -2.0 * ratio * ratio * dseff_dgap / s_eff
    d_gap = -p.max_accel * (dw_dgap * ratio * ratio + w * dratio2_dgap)
    d_egov = -p.max_accel * w * 2.0 * ratio * dsstar_degov / s_eff
    d_ov = -p.max_accel * dw_dov * ratio * ratio
    d_otherv = p.max_accel * (
        -4.0 * other_v ** 3 / p.desired_speed ** 4
        - w * 2.0 * ratio * dsstar_dov_v / s_eff
    )
    partials = np.array([d_gap, d_egov, -d_gap, d_otherv, d_ov])
    return accel, partials
