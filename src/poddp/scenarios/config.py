"""Key-value scenario configuration files.

One file per experiment; lines are ``key = value`` with ``#`` comments.
Values parse as int, float, or bare string. Overrides must reference keys
that exist in the file, and every result file records the hash of the fully
resolved configuration so a run is reconstructible from its outputs.

A scenario reads its file through a dataclass whose fields are exactly the
file's keys (`ScenarioConfig.from_dict`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import ClassVar, Dict, Union

import numpy as np

from ..model import read_only
from .vehicle import BicycleParams

Value = Union[int, float, str]


class ConfigError(ValueError):
    pass


def _integer(value: Value) -> int:
    """`value` as an int; a float with a fractional part is not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


# Config fields are annotated `int` or `float`; under postponed evaluation a
# field's annotation is that name.
_COERCE = {"int": _integer, "float": float}


@dataclass(frozen=True)
class ScenarioConfig:
    """The keys every scenario file has; a scenario's config adds its own."""

    prior_key: ClassVar[str]  # the key of the first latent value's prior probability

    dt: float
    horizon: int
    segments: int
    wheelbase: float
    v_max: float
    steer_max: float
    accel_max: float
    start_x: float
    start_y: float
    start_heading: float
    start_speed: float
    speed_weight: float
    desired_speed: float  # cruise speed of the planner's vehicle
    steer_weight: float
    accel_weight: float

    @classmethod
    def from_dict(cls, values: Dict[str, Value]):
        """The config holding `values`, each coerced by its field's
        annotation. Every field must be given, and nothing else."""
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in values]
        unknown = [k for k in values if k not in names]
        problems = []
        if missing:
            problems.append(f"missing config keys: {', '.join(missing)}")
        if unknown:
            problems.append(f"unknown config keys: {', '.join(unknown)}")
        if problems:
            raise ConfigError("; ".join(problems))
        coerced = {}
        for f in fields(cls):
            try:
                coerced[f.name] = _COERCE[f.type](values[f.name])
            except (ValueError, OverflowError):  # e.g. a word, or inf for an int
                raise ConfigError(
                    f"config key {f.name!r} must be {f.type}, got {values[f.name]!r}"
                ) from None
        return cls(**coerced)

    def vehicle(self) -> BicycleParams:
        return BicycleParams(self.wheelbase, self.v_max, self.steer_max, self.accel_max)

    def initial_state(self) -> np.ndarray:
        return np.array([self.start_x, self.start_y, self.start_heading, self.start_speed])

    def process_variances(self) -> np.ndarray:
        """The squares of the `process_std_*` keys, in declaration order: the
        per-coordinate process noise variances."""
        stds = [getattr(self, f.name) for f in fields(self) if f.name.startswith("process_std_")]
        return np.array(stds) ** 2

    def effort_hessians(self, state_dim: int):
        """(l_xu, l_uu) of the effort cost steer_weight * steer**2 +
        accel_weight * accel**2, the only control term of every scenario."""
        l_xu = read_only(np.zeros((state_dim, 2)))
        l_uu = read_only(np.diag([2.0 * self.steer_weight, 2.0 * self.accel_weight]))
        return l_xu, l_uu


def _parse_value(raw: str) -> Value:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(text: str) -> Dict[str, Value]:
    cfg: Dict[str, Value] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = _parse_value(raw)
    return cfg


def load_config(path) -> Dict[str, Value]:
    return parse_config(Path(path).read_text())


def default_config(experiment: str) -> Dict[str, Value]:
    """Shipped configuration for one of the named experiments."""
    fname = f"{experiment}.cfg"
    ref = resources.files(__package__).joinpath("configs", fname)
    if not ref.is_file():
        raise ConfigError(f"no shipped config for experiment {experiment!r}")
    return parse_config(ref.read_text())


def apply_overrides(cfg: Dict[str, Value], overrides: Dict[str, str]) -> Dict[str, Value]:
    """Apply ``key=value`` overrides; unknown keys are an error."""
    out = dict(cfg)
    for key, raw in overrides.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _parse_value(str(raw))
    return out


def config_hash(cfg: Dict[str, Value]) -> str:
    canonical = "".join(f"{k}={cfg[k]!r}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
