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


METRICS = ("static", "dynamic")
FORMATS = ("json", "text")


@dataclass(frozen=True)
class Config(SearchLimits):
    """The search budgets, inherited with their defaults from SearchLimits,
    and the rest of a run's settings."""
    costs: dict[str, int] = field(default_factory=dict)
    metric: str = "static"                  # one of METRICS
    passes: tuple[str, ...] | None = None   # None = all forward passes
    reverses: tuple[str, ...] | None = None
    workload: str | None = None             # path to a JSON arg-vector list
    format: str = "json"                    # one of FORMATS
    seed: int = 0

    def limits(self) -> SearchLimits:
        return SearchLimits(**{f.name: getattr(self, f.name) for f in fields(SearchLimits)})

    def model(self) -> CostModel:
        return CostModel(dict(self.costs))


SETTINGS = frozenset(f.name for f in fields(Config))


def _check(cfg: Config) -> Config:
    from .passes import FORWARD_PASSES
    from .reverse import REVERSE_PASSES

    for key, allowed in (("metric", METRICS), ("format", FORMATS)):
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {getattr(cfg, key)!r}")
    if not isinstance(cfg.costs, dict):
        raise ConfigError(f"costs must be an object of opcode costs, got {cfg.costs!r}")
    for name, value in cfg.costs.items():
        if name not in _DEFAULT_COSTS:
            raise ConfigError(f"cost override for unknown opcode {name!r}")
        if type(value) is not int or value < 0:  # type(), as a JSON true is no cost
            raise ConfigError(f"cost for {name!r} must be a non-negative integer")
    for key, kind, known in (("passes", "pass", FORWARD_PASSES),
                             ("reverses", "reverse pass", REVERSE_PASSES)):
        names = getattr(cfg, key)
        if names is not None and not isinstance(names, tuple):
            raise ConfigError(f"{key} must be a list of {kind} names, got {names!r}")
        for n in names or ():
            if not isinstance(n, str) or n not in known:
                raise ConfigError(f"unknown {kind} {n!r}")
    if cfg.workload is not None and not isinstance(cfg.workload, str):
        raise ConfigError(f"workload must be a file name or null, got {cfg.workload!r}")
    if type(cfg.seed) is not int:
        raise ConfigError(f"seed must be an integer, got {cfg.seed!r}")
    for f in fields(SearchLimits):
        v = getattr(cfg, f.name)
        if type(v) is not int or v < 1:
            raise ConfigError(f"{f.name} must be a positive integer, got {v!r}")
    return cfg


def load_config(path: str | Path | None = None) -> Config:
    """Read a config file (or BIDIROPT_CONFIG, or defaults), strictly."""
    if path is None:
        path = os.environ.get("BIDIROPT_CONFIG") or None
    if path is None:
        return _check(Config())
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("passes", "reverses") and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return _check(Config(**kwargs))


def override(cfg: Config, **updates) -> Config:
    """Apply non-None command-line overrides on top of a config."""
    real = {k: v for k, v in updates.items() if v is not None}
    if not real:
        return cfg
    return _check(replace(cfg, **real))
