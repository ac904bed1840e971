"""Run configuration.

A config is a flat JSON object; every key must be known and well-typed, and
command-line flags override file values. BIDIROPT_CONFIG names a default
file for when --config is not given.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .cost import CostModel, _DEFAULT_COSTS
from .search import SearchLimits


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Config(SearchLimits):
    """The search budgets, inherited with their defaults from SearchLimits,
    and the rest of a run's settings."""
    costs: dict[str, int] = field(default_factory=dict)
    metric: str = "static"                  # "static" | "dynamic"
    passes: tuple[str, ...] | None = None   # None = all forward passes
    reverses: tuple[str, ...] | None = None
    workload: str | None = None             # path to a JSON arg-vector list
    format: str = "json"                    # "json" | "text"
    seed: int = 0

    def limits(self) -> SearchLimits:
        return SearchLimits(**{f.name: getattr(self, f.name) for f in fields(SearchLimits)})

    def model(self) -> CostModel:
        return CostModel(dict(self.costs))


_FIELDS = {f.name: f for f in fields(Config)}


def _check(cfg: Config) -> Config:
    from .passes import FORWARD_PASSES
    from .reverse import REVERSE_PASSES

    if cfg.metric not in ("static", "dynamic"):
        raise ConfigError(f"metric must be 'static' or 'dynamic', got {cfg.metric!r}")
    if cfg.format not in ("json", "text"):
        raise ConfigError(f"format must be 'json' or 'text', got {cfg.format!r}")
    for name, value in cfg.costs.items():
        if name not in _DEFAULT_COSTS:
            raise ConfigError(f"cost override for unknown opcode {name!r}")
        if not isinstance(value, int) or value < 0:
            raise ConfigError(f"cost for {name!r} must be a non-negative integer")
    if cfg.passes is not None:
        for p in cfg.passes:
            if p not in FORWARD_PASSES:
                raise ConfigError(f"unknown pass {p!r}")
    if cfg.reverses is not None:
        for r in cfg.reverses:
            if r not in REVERSE_PASSES:
                raise ConfigError(f"unknown reverse pass {r!r}")
    for f in fields(SearchLimits):
        v = getattr(cfg, f.name)
        if not isinstance(v, int) or v < 1:
            raise ConfigError(f"{f.name} must be a positive integer, got {v!r}")
    return cfg


def load_config(path: str | Path | None = None) -> Config:
    """Read a config file (or BIDIROPT_CONFIG, or defaults), strictly."""
    if path is None:
        path = os.environ.get("BIDIROPT_CONFIG") or None
    if path is None:
        return _check(Config())
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("passes", "reverses") and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        cfg = Config(**kwargs)
    except TypeError as e:
        raise ConfigError(str(e)) from None
    return _check(cfg)


def override(cfg: Config, **updates) -> Config:
    """Apply non-None command-line overrides on top of a config."""
    real = {k: v for k, v in updates.items() if v is not None}
    if not real:
        return cfg
    return _check(replace(cfg, **real))
