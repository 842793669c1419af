import json
from dataclasses import fields

import pytest

from hyperhop.config import AppConfig, load_app_config
from hyperhop.errors import ContractError
from hyperhop.retrieval import RetrievalConfig


def test_defaults():
    config = load_app_config(env={})
    assert config.offline is False
    assert config.retrieval.eta == 0.8
    assert config.retrieval.steps == 4
    assert (config.retrieval.k1, config.retrieval.k2) == (5, 10)


def test_precedence_flags_over_env_over_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"eta": 0.1, "beta": 0.2, "k1": 2, "k2": 4}))
    env = {"HYPERHOP_ETA": "0.3", "HYPERHOP_API_BASE": "http://env.local"}
    config = load_app_config({"eta": 0.7}, config_file=cfg_file, env=env)
    assert config.retrieval.eta == 0.7  # flag wins
    assert config.retrieval.beta == 0.2  # file survives where nothing overrides
    assert config.api_base == "http://env.local"  # env wins over file default
    assert (config.retrieval.k1, config.retrieval.k2) == (2, 4)


def test_env_bool_parsing():
    config = load_app_config(env={"HYPERHOP_OFFLINE": "true"})
    assert config.offline is True
    with pytest.raises(ContractError):
        load_app_config(env={"HYPERHOP_OFFLINE": "maybe"})


def test_file_null_leaves_the_setting_unset(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"index_dir": None, "eta": None}))
    config = load_app_config(config_file=cfg_file, env={})
    assert config.index_dir is None and config.retrieval.eta == 0.8
    with pytest.raises(ContractError, match="missing required setting: index_dir"):
        config.require("index_dir")


@pytest.mark.parametrize(
    "name, value", [("offline", 2), ("use_weight_matrix", []), ("offline", "maybe")]
)
def test_file_bool_that_is_not_a_boolean_rejected(tmp_path, name, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({name: value}))
    with pytest.raises(ContractError, match=f"boolean setting {name}="):
        load_app_config(config_file=cfg_file, env={})


@pytest.mark.parametrize(
    "name, value",
    [("index_dir", ["a", 1]), ("api_key", 5), ("corpus", {"path": "c"}), ("chat_model", True)],
)
def test_file_string_that_is_not_a_string_rejected(tmp_path, name, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({name: value}))
    with pytest.raises(ContractError, match=f"setting {name}=.* is not str"):
        load_app_config(config_file=cfg_file, env={})


def test_unknown_config_keys_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ContractError, match="nope"):
        load_app_config(config_file=cfg_file, env={})


def test_integral_float_is_an_int_setting(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k1": 2.0}))
    assert load_app_config(config_file=cfg_file, env={}).retrieval.k1 == 2


def test_missing_config_file(tmp_path):
    with pytest.raises(ContractError, match="not found"):
        load_app_config(config_file=tmp_path / "absent.json", env={})


def test_invalid_retrieval_ranges_rejected():
    with pytest.raises(ContractError):
        load_app_config({"k1": 9, "k2": 3}, env={})


def test_require():
    config = AppConfig()
    with pytest.raises(ContractError, match="corpus"):
        config.require("corpus")


# Independent of the derivation in hyperhop.config: every setting and the
# type it must be coerced to.
EXPECTED_TYPES = {
    "corpus": str,
    "index_dir": str,
    "cache_dir": str,
    "offline": bool,
    "api_base": str,
    "api_key": str,
    "embed_model": str,
    "embed_dim": int,
    "chat_model": str,
    "batch_size": int,
    "max_workers": int,
    "offline_dim": int,
    "extraction_prompt": str,
    "answer_prompt": str,
    "eta": float,
    "beta": float,
    "steps": int,
    "k1": int,
    "k2": int,
    "use_weight_matrix": bool,
    "use_semantic_enhancement": bool,
    "use_structural_enhancement": bool,
}
FILE_VALUES = {str: "from-file", int: "3", float: 1, bool: "yes"}
ENV_VALUES = {str: "from-env", int: "4", float: "0.25", bool: "off"}
COERCED = {
    "file": {str: "from-file", int: 3, float: 1.0, bool: True},
    "env": {str: "from-env", int: 4, float: 0.25, bool: False},
}


def _setting(config, name):
    return getattr(config.retrieval if hasattr(config.retrieval, name) else config, name)


@pytest.mark.parametrize("source", ["file", "env"])
def test_every_setting_is_coerced_from_file_and_env(tmp_path, source):
    names = [f.name for f in fields(AppConfig) if f.name != "retrieval"]
    names += [f.name for f in fields(RetrievalConfig)]
    assert names == list(EXPECTED_TYPES)
    if source == "file":
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({n: FILE_VALUES[k] for n, k in EXPECTED_TYPES.items()}))
        config = load_app_config(config_file=cfg_file, env={})
    else:
        env = {f"HYPERHOP_{n.upper()}": ENV_VALUES[k] for n, k in EXPECTED_TYPES.items()}
        config = load_app_config(env=env)
    for name, kind in EXPECTED_TYPES.items():
        value = _setting(config, name)
        assert type(value) is kind, name
        assert value == COERCED[source][kind], name
