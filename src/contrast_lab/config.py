"""Experiment configuration: a single JSON-serializable record holding every
setting of the experiment; the command line says only what to run and where."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from .contrastive import DEFAULT_ENUMERATION_CAP, DEFAULT_MC_SAMPLES
from .errors import ConfigError

#: Step sizes for the default desk-scale run (n=8, k=2, L=3, m=512, d=32).
#: Calibrated once on that config and fixed; scale like d/m.
DEFAULT_ETA = 0.0625
DEFAULT_GAMMA = 0.0625


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 8
    k: int = 2
    L: int = 3
    m: int = 512
    d: int = 32
    b: int = 16
    delta_min: float = 0.5
    epsilon: float = 0.5
    seed: int = 1
    step_mode: str = "practical"          # "practical" | "theoretical"
    eta: float = DEFAULT_ETA
    gamma: float = DEFAULT_GAMMA
    T: int = 200
    mode: str = "exact"                   # train's loss: "exact" | "monte-carlo"
    mc_samples: int = DEFAULT_MC_SAMPLES
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def validate(self) -> None:
        for name in ("seed", "n", "k", "L", "m", "d", "b", "T", "mc_samples", "enumeration_cap"):
            value = getattr(self, name)
            # bool is an int subclass: "T": true would otherwise run one step
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "seed":
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in ("delta_min", "epsilon", "eta", "gamma"):
            value = getattr(self, name)
            # JSON admits NaN and Infinity; an int beyond the float range overflows
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        # the two float64 weight stacks alone; beyond physical memory, init fails
        weight_bytes = 2 * 8 * (self.m * self.b + (self.L - 1) * self.m**2 + self.d * self.m)
        # a Monte-Carlo call holds at most four (samples, n, k) float64 tables
        mc_bytes = 4 * 8 * self.mc_samples * self.n * self.k
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if weight_bytes > memory:
            raise ConfigError(f"the two weight stacks need {weight_bytes} bytes, "
                              f"more than the {memory} bytes of physical memory")
        if self.mode == "monte-carlo" and mc_bytes > memory:
            raise ConfigError(f"mc_samples {self.mc_samples} needs {mc_bytes} bytes per "
                              f"Monte-Carlo call, more than the {memory} bytes of physical memory")
        if self.b < 2:
            raise ConfigError(f"b must be at least 2, got {self.b}")
        if self.k > self.n - 1:
            raise ConfigError("k must be ≤ n−1")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta_min < 2.0**0.5:
            raise ConfigError(f"delta_min must lie in (0, sqrt(2)), got {self.delta_min}")
        if self.step_mode not in ("practical", "theoretical"):
            raise ConfigError(f"step_mode must be practical or theoretical, got {self.step_mode!r}")
        if self.mode not in ("exact", "monte-carlo"):
            raise ConfigError(f"mode must be exact or monte-carlo, got {self.mode!r}")
        if self.eta <= 0 or self.gamma <= 0:
            raise ConfigError("eta and gamma must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document.  Missing keys take the
    documented defaults; unknown keys are rejected by name."""
    try:
        raw = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an int past the digit limit
        raise ConfigError(f"malformed config document: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - names)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg = ExperimentConfig(**raw)
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"config document is not UTF-8: {err}") from err
    return parse_config(text)
