"""Benchmark scenarios and their configuration files."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..belief import Belief
from ..model import ProblemModel
from . import lane_change, terrain, tmaze
from .config import ConfigError, default_config

# experiment name -> (config dataclass, model builder)
SCENARIOS = {
    "tmaze": (tmaze.TMazeConfig, tmaze.build),
    "terrain": (terrain.TerrainConfig, terrain.build),
    "lanechange": (lane_change.LaneChangeConfig, lane_change.build),
}
EXPERIMENTS = tuple(SCENARIOS)


@dataclass(frozen=True)
class Scenario:
    """A fully instantiated benchmark problem."""

    model: ProblemModel
    initial_state: np.ndarray
    prior: Belief
    horizon: int
    segments: int
    control_low: np.ndarray  # hard clamp applied at execution time
    control_high: np.ndarray
    config: dict  # the flat key/value config the scenario was built from


def build_scenario(name: str, config: Optional[dict] = None) -> Scenario:
    """Instantiate a named scenario, optionally from a custom config dict.

    When `config` is None the shipped default configuration is used.
    """
    if name not in SCENARIOS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    config_class, build = SCENARIOS[name]
    cfg = default_config(name) if config is None else dict(config)
    sc = config_class.from_dict(cfg)
    first = getattr(sc, sc.prior_key)  # prior probability of the first latent
    bound = np.array([sc.steer_max, sc.accel_max])
    return Scenario(
        model=build(sc),
        initial_state=sc.initial_state(),
        prior=Belief(np.array([first, 1.0 - first])),
        horizon=sc.horizon,
        segments=sc.segments,
        control_low=-bound,
        control_high=bound,
        config=cfg,
    )
