"""Tests for scenario-config serialization."""

import json
from pathlib import Path

import pytest

from repro.booter.market import MarketConfig
from repro.experiments.base import ExperimentConfig
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig
from repro.scenario.serialize import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


#: The small preset's manifest as ``save_config`` wrote it while the
#: config still carried the four ``visibility_*`` storage knobs.
OLD_MANIFEST = Path(__file__).parent / "fixtures" / "small_preset_manifest.json"

_VISIBILITY_KNOBS = {
    "visibility_mode": "auto",
    "visibility_dense_max_asns": 4096,
    "visibility_block_columns": 512,
    "visibility_budget_mb": 256,
}


def custom_config():
    return ScenarioConfig(
        seed=99,
        scale=0.25,
        topology=TopologyConfig(n_tier1=4, n_tier2=9, n_stub=55),
        market=MarketConfig(daily_attacks=33.0, n_victims=222),
        pool_sizes=(("ntp", 1234), ("dns", 567), ("cldap", 200), ("memcached", 100), ("ssdp", 150)),
        ixp_sampling=5000,
    )


class TestRoundtrip:
    def test_default_config(self):
        config = ScenarioConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_custom_config(self):
        config = custom_config()
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert rebuilt.topology.n_tier2 == 9
        assert dict(rebuilt.pool_sizes)["ntp"] == 1234

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        config = custom_config()
        save_config(config, path)
        assert load_config(path) == config
        # And it's honest JSON a human can read/diff.
        data = json.loads(path.read_text())
        assert data["seed"] == 99
        assert data["market"]["daily_attacks"] == 33.0
        assert data["pool_sizes"]["ntp"] == 1234

    def test_partial_dict_uses_defaults(self):
        config = config_from_dict({"seed": 7, "scale": 0.5})
        assert config.seed == 7
        assert config.n_days == ScenarioConfig().n_days

    def test_rebuilt_config_builds_identical_world(self):
        config = custom_config()
        rebuilt = config_from_dict(config_to_dict(config))
        a = Scenario(config)
        b = Scenario(rebuilt)
        ta = a.day_traffic(40)
        tb = b.day_traffic(40)
        assert ta.attack.total_packets == tb.attack.total_packets
        assert len(ta.events) == len(tb.events)


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({"seed": 1, "turbo": True})

    def test_unknown_nested_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({"market": {"daily_attacks": 5.0, "bogus": 1}})

    def test_pair_field_must_be_object(self):
        with pytest.raises(ValueError, match="object"):
            config_from_dict({"pool_sizes": [["ntp", 100]]})

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError):
            config_from_dict({"scale": 0.0})

    def test_legacy_per_event_seeds_field(self):
        # Manifests written while per-event seeding existed carry the
        # field; at False (the only world still drawn) they load as
        # before, while True names a world that can no longer be drawn.
        data = config_to_dict(custom_config())
        assert config_from_dict({**data, "per_event_seeds": False}) == custom_config()
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({**data, "per_event_seeds": True})

    def test_manifest_with_visibility_knobs_loads(self):
        # Manifests saved while the visibility-storage knobs existed carry
        # all four at their defaults; they load to the same config (and
        # hash), and resave without the knobs.
        data = json.loads(OLD_MANIFEST.read_text())
        assert {k: data[k] for k in _VISIBILITY_KNOBS} == _VISIBILITY_KNOBS
        config = load_config(OLD_MANIFEST)
        small = ExperimentConfig().scenario_config()
        assert config == small
        assert config.content_hash() == small.content_hash()
        resaved = config_to_dict(config)
        assert not set(_VISIBILITY_KNOBS) & set(resaved)
        assert {**resaved, **_VISIBILITY_KNOBS} == data
        assert config_from_dict(data) == config

    @pytest.mark.parametrize(
        "field, value",
        [
            ("visibility_mode", "dense"),
            ("visibility_dense_max_asns", 0),
            ("visibility_block_columns", 64),
            ("visibility_budget_mb", 512),
            ("visibility_budget_mb", 256.0),
        ],
    )
    def test_retired_field_other_values_rejected(self, field, value):
        data = config_to_dict(custom_config())
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({**data, field: value})
