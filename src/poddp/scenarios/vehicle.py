"""Kinematic bicycle model and smooth shaping functions shared by scenarios.

Everything here runs on scalars, once per model callback, so it uses `math`
and plain comparisons rather than numpy ufuncs. The callbacks here and in the
scenarios unpack their state and control arrays once with `.tolist()`, since
arithmetic on Python floats is several times faster than on numpy scalars and
gives the same IEEE results. Non-finite inputs give non-finite outputs (NaN
where `math` would raise `ValueError`), which the solver's rollout checks then
reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# State layout: (px, py, theta, v). Control layout: (steer, accel).
PX, PY, TH, V = 0, 1, 2, 3
STEER, ACCEL = 0, 1


@dataclass(frozen=True)
class BicycleParams:
    wheelbase: float = 2.5  # m
    v_max: float = 30.0  # m/s
    steer_max: float = 0.6  # rad, enforced by clamp at execution
    accel_max: float = 8.0  # m/s^2, enforced by clamp at execution


def _cos_sin(th):
    try:
        return math.cos(th), math.sin(th)
    except ValueError:  # infinite angle
        return math.nan, math.nan


def _saturate(value, limit):
    # max before min so that a NaN value propagates.
    return min(max(value, -limit), limit)


def bicycle_step(x, u, dt: float, params: BicycleParams) -> np.ndarray:
    """Explicit-Euler kinematic bicycle step.

    Controls saturate at the actuator limits inside the dynamics (matching
    the execution-time clamp) and speed is clamped to [0, v_max].
    """
    px, py, th, v = x.tolist()
    steer, accel = u.tolist()
    steer = _saturate(steer, params.steer_max)
    accel = _saturate(accel, params.accel_max)
    cos_th, sin_th = _cos_sin(th)
    return np.array(
        [
            px + v * cos_th * dt,
            py + v * sin_th * dt,
            th + (v / params.wheelbase) * math.tan(steer) * dt,
            min(max(v + accel * dt, 0.0), params.v_max),
        ]
    )


def bicycle_jacobians(x, u, dt: float, params: BicycleParams):
    """Analytic (f_x, f_u) of `bicycle_step`; clamps use their subgradients."""
    _, _, th, v = x.tolist()
    u_steer, u_accel = u.tolist()
    steer = _saturate(u_steer, params.steer_max)
    accel = _saturate(u_accel, params.accel_max)
    steer_active = 1.0 if abs(u_steer) < params.steer_max else 0.0
    accel_active = 1.0 if abs(u_accel) < params.accel_max else 0.0
    v_active = 1.0 if 0.0 < v + accel * dt < params.v_max else 0.0
    cos_th, sin_th = _cos_sin(th)
    cos_steer = math.cos(steer)
    f_x = np.array(
        [
            [1.0, 0.0, -v * sin_th * dt, cos_th * dt],
            [0.0, 1.0, v * cos_th * dt, sin_th * dt],
            [0.0, 0.0, 1.0, math.tan(steer) * dt / params.wheelbase],
            [0.0, 0.0, 0.0, v_active],
        ]
    )
    f_u = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [steer_active * v * dt / (params.wheelbase * cos_steer * cos_steer), 0.0],
            [0.0, v_active * accel_active * dt],
        ]
    )
    return f_x, f_u


def sigmoid(x: float) -> float:
    # Only ever exponentiates a non-positive number, so nothing overflows.
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softplus(x: float) -> float:
    return math.log1p(math.exp(-abs(x))) + (x if x > 0.0 else 0.0)
