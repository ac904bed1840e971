"""Config loading, validation, and overrides."""

import json

import pytest

from bidiropt.config import Config, ConfigError, load_config, override
from bidiropt.cost import CostModel
from bidiropt.search import SearchLimits


def test_defaults():
    cfg = load_config(None)
    assert cfg.metric == "static"
    assert cfg.format == "json"
    assert cfg.passes is None and cfg.reverses is None
    assert cfg.limits() == SearchLimits()
    assert cfg.model() == CostModel()
    assert cfg.step_limit == 10_000


def test_load_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "metric": "dynamic",
        "costs": {"mul": 5},
        "passes": ["dce", "const-fold"],
        "max_sequence_length": 4,
    }))
    cfg = load_config(p)
    assert cfg.metric == "dynamic"
    assert cfg.model().cost("mul") == 5
    assert cfg.passes == ("dce", "const-fold")
    assert cfg.limits().max_sequence_length == 4


def test_env_fallback(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 99}))
    monkeypatch.setenv("BIDIROPT_CONFIG", str(p))
    assert load_config(None).seed == 99


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"max_seq": 4}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_cost_opcode_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"costs": {"fma": 2}}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_pass_name_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"passes": ["inline"]}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_enum_values_rejected():
    with pytest.raises(ConfigError):
        override(Config(), metric="both")
    with pytest.raises(ConfigError):
        override(Config(), format="yaml")


def test_nonpositive_budgets_rejected():
    with pytest.raises(ConfigError):
        override(Config(), max_programs_explored=0)
    with pytest.raises(ConfigError):
        override(Config(), step_limit=-5)


def test_override_ignores_none_and_validates():
    cfg = load_config(None)
    same = override(cfg, metric=None, seed=None)
    assert same == cfg
    changed = override(cfg, seed=3, metric="dynamic")
    assert changed.seed == 3 and changed.metric == "dynamic"
    with pytest.raises(ConfigError):
        override(cfg, reverses=("rev-unknown",))


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
