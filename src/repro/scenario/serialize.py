"""Scenario-config serialization: reproducible experiment manifests.

A :class:`~repro.scenario.config.ScenarioConfig` plus a seed fully
determines a simulation. Serializing it to JSON gives shareable,
version-controllable manifests: run collaborators' exact worlds, archive
what produced a figure, diff two configurations.

Only JSON-native types appear on disk; nested dataclasses become nested
objects, tuple-of-pairs fields become objects too. Unknown keys are
rejected on load (typos must not silently become defaults).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from repro.booter.market import MarketConfig
from repro.netmodel.topology import TopologyConfig
from repro.scenario.background import BackgroundConfig
from repro.scenario.config import ScenarioConfig

__all__ = ["config_to_dict", "config_from_dict", "save_config", "load_config"]

# Fields stored as tuple[tuple[str, number], ...] in the dataclasses but
# serialized as JSON objects for readability.
_PAIR_FIELDS = {
    "pool_sizes",
    "pool_concentrations",
    "pool_member_bias",
    "vector_mix",
    "plan_mix",
    "vector_rate_multipliers",
    "scan_pps",
}

_NESTED = {
    "topology": TopologyConfig,
    "market": MarketConfig,
    "background": BackgroundConfig,
}


def _encode_value(name: str, value: Any) -> Any:
    if name in _PAIR_FIELDS:
        return {str(k): v for k, v in value}
    if isinstance(value, tuple):
        return list(value)
    return value


def _dataclass_to_dict(obj: Any) -> dict[str, Any]:
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            out[field.name] = _dataclass_to_dict(value)
        else:
            out[field.name] = _encode_value(field.name, value)
    return out


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Serialize a scenario config to a JSON-compatible dict."""
    return _dataclass_to_dict(config)


def _decode_value(cls: type, name: str, value: Any) -> Any:
    if name in _PAIR_FIELDS:
        if not isinstance(value, dict):
            raise ValueError(f"field {name!r} must be an object")
        return tuple((k, v) for k, v in value.items())
    field_types = {f.name: f for f in dataclasses.fields(cls)}
    default = field_types[name].default
    if isinstance(default, tuple) or (
        isinstance(value, list) and not isinstance(default, list)
    ):
        if isinstance(value, list):
            return tuple(value)
    return value


def _dict_to_dataclass(cls: type, data: dict[str, Any]) -> Any:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown fields for {cls.__name__}: {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        if name in _NESTED and cls is ScenarioConfig:
            kwargs[name] = _dict_to_dataclass(_NESTED[name], value)
        else:
            kwargs[name] = _decode_value(cls, name, value)
    return cls(**kwargs)


#: Fields removed from ScenarioConfig, with the one value an old manifest
#: may still carry for each: per-event seeding off (the one world still
#: drawn) and the visibility-storage knobs at their defaults (verdicts
#: never depended on them). Any other value is an unknown field.
_RETIRED_FIELDS = {
    "per_event_seeds": False,
    "visibility_mode": "auto",
    "visibility_dense_max_asns": 4096,
    "visibility_block_columns": 512,
    "visibility_budget_mb": 256,
}


def _is_retired(name: str, value: Any) -> bool:
    if name not in _RETIRED_FIELDS:
        return False
    accepted = _RETIRED_FIELDS[name]
    return type(value) is type(accepted) and value == accepted


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Rebuild a scenario config from :func:`config_to_dict` output.

    Missing fields take their defaults; unknown fields raise. Retired
    fields (:data:`_RETIRED_FIELDS`) at their one accepted value are
    dropped, so manifests saved before their removal keep loading.
    """
    data = {k: v for k, v in data.items() if not _is_retired(k, v)}
    return _dict_to_dataclass(ScenarioConfig, data)


def save_config(config: ScenarioConfig, path: str | Path) -> None:
    """Write a config manifest as pretty-printed JSON."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a config manifest written by :func:`save_config`."""
    return config_from_dict(json.loads(Path(path).read_text()))
