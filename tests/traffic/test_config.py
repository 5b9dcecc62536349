"""TrafficConfig validation, tree wiring, presets, and round trips."""

import pytest

from repro.config import ConfigError, PlatformConfig, TrafficConfig, preset
from repro.traffic import (
    GatewayConfig,
    RequestClassConfig,
    traffic_preset,
    traffic_preset_names,
)

pytestmark = pytest.mark.traffic


# -- validation ------------------------------------------------------------

def test_defaults_are_disabled_and_valid():
    cfg = TrafficConfig()
    assert cfg.enabled is False
    assert cfg.arrival == "poisson"
    assert len(cfg.classes) == 4


@pytest.mark.parametrize(
    "overrides",
    [
        {"users": 0},
        {"per_user_rps": 0.0},
        {"duration_ns": -1.0},
        {"arrival": "bursty"},
        {"arrival": "diurnal"},
        {"flash_at_ns": -1.0},
        {"flash_duration_ns": 0.0},
        {"duration_ns": 0.0},
        {"flash_multiplier": 0.5},
        {"key_space": 0},
        {"key_skew": 0.5},
        {"key_skew": 0.99},
        {"classes": ()},
    ],
)
def test_invalid_traffic_values_raise(overrides):
    with pytest.raises(ValueError):
        TrafficConfig(enabled=True, **overrides)


def test_duplicate_class_kinds_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        TrafficConfig(
            classes=(
                RequestClassConfig("kvs_get"),
                RequestClassConfig("kvs_get"),
            )
        )


def test_unknown_class_kind_rejected():
    with pytest.raises(ValueError, match="unknown request class"):
        RequestClassConfig("graphql")


@pytest.mark.parametrize(
    "overrides",
    [
        {"admit_rps": 0.0},
        {"admit_burst": 0},
        {"max_queue_depth": 0},
        {"workers": 0},
        {"batch_max": 0},
        {"batch_window_ns": -1.0},
        {"cache_slots": -1},
        {"cache_hit_ns": 0.0},
    ],
)
def test_invalid_gateway_values_raise(overrides):
    with pytest.raises(ValueError):
        GatewayConfig(**overrides)


def test_base_rate_scales_with_population():
    cfg = TrafficConfig(users=1_000_000, per_user_rps=0.5)
    assert cfg.base_rate_per_ns == pytest.approx(0.5e-3)


# -- tree wiring -----------------------------------------------------------

def test_platform_config_has_inert_traffic_section_by_default():
    assert PlatformConfig().traffic.enabled is False


def test_rack_traffic_preset_round_trips():
    cfg = preset("rack_traffic")
    assert cfg.traffic.enabled
    assert cfg.traffic.users == 1_000_000
    assert cfg.fleet.enabled and cfg.fleet.write_quorum == 2
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg
    assert PlatformConfig.from_json(cfg.to_json()) == cfg


def test_dotted_overrides_reach_traffic_leaves():
    cfg = preset("full").with_overrides(
        {
            "traffic.enabled": True,
            "traffic.users": 123,
            "traffic.gateway.admit_rps": 5_000.0,
        }
    )
    assert cfg.traffic.enabled and cfg.traffic.users == 123
    assert cfg.traffic.gateway.admit_rps == 5_000.0


def test_overrides_are_validated():
    with pytest.raises((ConfigError, ValueError)):
        preset("full").with_overrides({"traffic.arrival": "sometimes"})


def test_deviations_track_traffic_changes():
    cfg = preset("rack_traffic").with_overrides({"traffic.key_skew": 3.0})
    assert "traffic.key_skew" in cfg.deviations()


# -- presets ---------------------------------------------------------------

def test_traffic_preset_names_and_contents():
    names = traffic_preset_names()
    assert set(names) >= {"steady", "flash_crowd", "million_users"}
    for name in names:
        cfg = traffic_preset(name)
        assert cfg.enabled, f"preset {name} must be enabled"
    assert traffic_preset("million_users").users == 1_000_000
    assert traffic_preset("flash_crowd").arrival == "flash"


def test_unknown_traffic_preset_raises():
    with pytest.raises(ValueError, match="unknown traffic preset"):
        traffic_preset("black_friday")
    with pytest.raises(ValueError, match="unknown traffic preset"):
        traffic_preset("diurnal")
