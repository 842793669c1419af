"""Application configuration with flags > env > config file > defaults."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, get_args, get_type_hints

from .errors import ContractError
from .retrieval import RetrievalConfig

ENV_PREFIX = "HYPERHOP_"


@dataclass
class AppConfig:
    corpus: str | None = None
    index_dir: str | None = None
    cache_dir: str | None = None
    offline: bool = False
    api_base: str | None = None
    api_key: str = ""
    embed_model: str | None = None
    embed_dim: int = 256
    chat_model: str | None = None
    batch_size: int = 64
    max_workers: int = 1
    offline_dim: int = 256
    extraction_prompt: str | None = None
    answer_prompt: str | None = None
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)

    def require(self, name: str) -> str:
        value = getattr(self, name)
        if not value:
            raise ContractError(f"missing required setting: {name}")
        return value


def _field_types(cls) -> dict[str, type]:
    """Field name -> type of a dataclass, reading ``X | None`` as X."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kinds = [k for k in get_args(hints[f.name]) if k is not type(None)]
        out[f.name] = kinds[0] if kinds else hints[f.name]
    return out


_RETRIEVAL_TYPES = _field_types(RetrievalConfig)

# Every setting a config file, the environment (HYPERHOP_<NAME>) or a flag
# may set: the scalar fields of AppConfig, then those of RetrievalConfig.
SETTING_TYPES: dict[str, type] = {
    **{name: kind for name, kind in _field_types(AppConfig).items() if name != "retrieval"},
    **_RETRIEVAL_TYPES,
}


_BOOL_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _coerce(name: str, value: Any) -> Any:
    kind = SETTING_TYPES[name]
    if kind is bool:
        # A boolean or a boolean word, never the truth value of another type.
        if isinstance(value, str):
            value = _BOOL_WORDS.get(value.strip().lower(), value)
        if not isinstance(value, bool):
            raise ContractError(f"cannot parse boolean setting {name}={value!r}")
        return value
    # str() would make a directory name of a JSON list or a key of a number.
    if kind is str and not isinstance(value, str):
        raise ContractError(f"setting {name}={value!r} is not str")
    # bool is an int, and int() drops a fraction: neither is a number here.
    lossy = kind is int and isinstance(value, float) and not value.is_integer()
    if kind in (int, float) and (isinstance(value, bool) or lossy):
        raise ContractError(f"setting {name}={value!r} is not {kind.__name__}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ContractError(f"setting {name}={value!r} is not {kind.__name__}") from None


def _from_file(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    if not path.exists():
        raise ContractError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ContractError(f"config file {path} is not readable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ContractError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(SETTING_TYPES)
    if unknown:
        raise ContractError(f"unknown config keys in {path}: {sorted(unknown)}")
    # A null is a setting left unset, as an absent key is.
    return {name: _coerce(name, value) for name, value in data.items() if value is not None}


def _from_env(env: Mapping[str, str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name in SETTING_TYPES:
        key = ENV_PREFIX + name.upper()
        if key in env:
            out[name] = _coerce(name, env[key])
    return out


def load_app_config(
    flag_values: Mapping[str, Any] | None = None,
    config_file: str | Path | None = None,
    env: Mapping[str, str] | None = None,
) -> AppConfig:
    """Merge settings by precedence: flags, then env, then file, defaults last."""
    merged: dict[str, Any] = {}
    if config_file:
        merged.update(_from_file(config_file))
    merged.update(_from_env(os.environ if env is None else env))
    if flag_values:
        merged.update({k: v for k, v in flag_values.items() if v is not None})

    retrieval_kwargs = {key: merged.pop(key) for key in _RETRIEVAL_TYPES if key in merged}
    config = AppConfig(**merged)
    config.retrieval = RetrievalConfig(**retrieval_kwargs)
    return config
