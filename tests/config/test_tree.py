"""The PlatformConfig tree: round trips, strict validation, overrides,
and provenance."""

import json
import re

import pytest

from repro.config import ConfigError, PlatformConfig, preset, preset_names
from repro.eci import EciLinkParams


# -- round trips -----------------------------------------------------------

@pytest.mark.parametrize("name", ["full", "bringup_4lane", "degraded"])
def test_preset_dict_round_trip(name):
    cfg = preset(name)
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("name", ["full", "bringup_4lane", "degraded"])
def test_preset_json_round_trip(name):
    cfg = preset(name)
    assert PlatformConfig.from_json(cfg.to_json()) == cfg


def test_round_trip_survives_overrides():
    cfg = preset("full").with_overrides(
        {
            "eci.link.lanes_per_link": 4,
            "eci.links_used": 1,
            "net.linux_tcp.mtu": 9000,
            "fpga.clock_mhz": 150.0,
            "cpu.n_cores": 24,
        }
    )
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg


def test_to_json_is_valid_sorted_json():
    text = preset("full").to_json()
    data = json.loads(text)
    assert data["preset"] == "full"
    assert data["eci"]["link"]["lanes_per_link"] == 12


def test_partial_dict_fills_defaults():
    cfg = PlatformConfig.from_dict({"eci": {"links_used": 1}})
    assert cfg.eci.links_used == 1
    assert cfg.eci.link == EciLinkParams()
    assert cfg.fpga.clock_mhz == 300.0


def test_tuple_fields_round_trip():
    cfg = preset("full")
    data = cfg.to_dict()
    # Tuples are serialized as lists...
    assert data["cpu"]["on_die_accelerators"] == ["crypto", "compression", "nic"]
    # ...and come back as tuples.
    assert PlatformConfig.from_dict(data).cpu.on_die_accelerators == (
        "crypto", "compression", "nic",
    )


# -- strict validation -----------------------------------------------------

def test_unknown_top_level_key_names_path():
    with pytest.raises(ConfigError, match="bogus: unknown key"):
        PlatformConfig.from_dict({"bogus": 1})


def test_unknown_nested_key_names_dotted_path():
    with pytest.raises(ConfigError, match=r"eci\.link\.lanes: unknown key"):
        PlatformConfig.from_dict({"eci": {"link": {"lanes": 24}}})


@pytest.mark.parametrize(
    "data, path",
    [
        ({"traffic": {"mode": "closed"}}, "traffic.mode"),
        ({"traffic": {"closed_clients": 64}}, "traffic.closed_clients"),
        ({"traffic": {"think_ns": 200_000.0}}, "traffic.think_ns"),
        ({"traffic": {"diurnal_period_ns": 1e7}}, "traffic.diurnal_period_ns"),
        ({"traffic": {"diurnal_amplitude": 0.6}}, "traffic.diurnal_amplitude"),
        ({"traffic": {"client_ports": 4}}, "traffic.client_ports"),
        ({"traffic": {"gateway": {"hedge_ns": 2_000.0}}}, "traffic.gateway.hedge_ns"),
        (
            {"traffic": {"classes": [{"kind": "kvs_get", "deadline_ns": 3e5}]}},
            "traffic.classes[0].deadline_ns",
        ),
        ({"fleet": {"enabled": True}}, "fleet.enabled"),
        ({"traffic": {"enabled": True}}, "traffic.enabled"),
        (
            {"fleet": {"anti_entropy": {"enabled": True}}},
            "fleet.anti_entropy.enabled",
        ),
        ({"snap": {"record_taps": True}}, "snap"),
        ({"fleet": {"vnodes": 64}}, "fleet.vnodes"),
        ({"fleet": {"link_gbps": 100.0}}, "fleet.link_gbps"),
        ({"fleet": {"link_propagation_ns": 500.0}}, "fleet.link_propagation_ns"),
        ({"fleet": {"switch_forwarding_ns": 300.0}}, "fleet.switch_forwarding_ns"),
        ({"fleet": {"service_ns": 900.0}}, "fleet.service_ns"),
        ({"fleet": {"request_timeout_ns": 60_000.0}}, "fleet.request_timeout_ns"),
        ({"fleet": {"anti_entropy": {"depth": 4}}}, "fleet.anti_entropy.depth"),
        (
            {"traffic": {"gateway": {"cache_hit_ns": 1_500.0}}},
            "traffic.gateway.cache_hit_ns",
        ),
        ({"health": {"watchdog": {"eci_deadline_ns": 25_000.0}}}, "health.watchdog"),
        ({"health": {"breaker": {"failure_threshold": 3}}}, "health.breaker"),
        ({"health": {"eci": {"crc_storm_threshold": 8}}}, "health.eci"),
        ({"health": {"power": {"throttle_fraction": 0.5}}}, "health.power"),
        ({"health": {"recovery": {"jitter": 0.25}}}, "health.recovery"),
    ],
)
def test_removed_traffic_keys_name_dotted_path(data, path):
    """A saved config that still sets a deleted knob or section fails
    loudly instead of silently running without it."""
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key")):
        PlatformConfig.from_dict(data)


def test_out_of_range_value_names_dotted_path():
    with pytest.raises(ConfigError, match=r"eci\.link"):
        PlatformConfig.from_dict({"eci": {"link": {"encoding_efficiency": 1.5}}})


def test_cross_field_validation_links_used():
    with pytest.raises(ConfigError, match=r"eci.*links_used"):
        PlatformConfig.from_dict({"eci": {"links_used": 5}})


def test_type_mismatch_names_path():
    with pytest.raises(ConfigError, match=r"fpga\.n_slots"):
        PlatformConfig.from_dict({"fpga": {"n_slots": "four"}})
    with pytest.raises(ConfigError, match=r"fpga\.clock_mhz"):
        PlatformConfig.from_dict({"fpga": {"clock_mhz": "fast"}})


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match=r"fpga\.clock_mhz"):
        PlatformConfig.from_dict({"fpga": {"clock_mhz": True}})


def test_section_must_be_mapping():
    with pytest.raises(ConfigError, match="eci"):
        PlatformConfig.from_dict({"eci": 42})


def test_invalid_json_raises_config_error():
    with pytest.raises(ConfigError, match="invalid JSON"):
        PlatformConfig.from_json("{not json")


# -- dotted-path overrides -------------------------------------------------

def test_override_leaf_field():
    cfg = preset("full").with_overrides({"eci.link.lanes_per_link": 4})
    assert cfg.eci.link.lanes_per_link == 4
    # Everything else untouched.
    assert cfg.eci.link.lane_gbps == 10.0
    assert cfg.eci.links_used == 2


def test_override_does_not_mutate_original():
    cfg = preset("full")
    cfg.with_overrides({"fpga.clock_mhz": 100.0})
    assert cfg.fpga.clock_mhz == 300.0


def test_override_unknown_path():
    with pytest.raises(ConfigError, match=r"eci\.link\.lanes: unknown key"):
        preset("full").with_overrides({"eci.link.lanes": 4})


def test_override_out_of_range_revalidates():
    with pytest.raises(ConfigError, match=r"eci\.link\.lanes_per_link"):
        preset("full").with_overrides({"eci.link.lanes_per_link": 0})


def test_override_cross_field_revalidates():
    # Dropping the link count below links_used must be rejected.
    with pytest.raises(ConfigError):
        preset("full").with_overrides({"eci.link.links": 1})


def test_override_into_scalar_leaf_rejected():
    with pytest.raises(ConfigError, match="non-dataclass leaf"):
        preset("full").with_overrides({"fpga.clock_mhz.sub": 1})


def test_get_dotted_path():
    cfg = preset("bringup_4lane")
    assert cfg.get("eci.link.lanes_per_link") == 4
    assert cfg.get("memory.fpga_dram.channels") == 4
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.get("eci.nope")


# -- provenance ------------------------------------------------------------

def test_pristine_presets_have_no_deviations():
    for name in preset_names():
        assert preset(name).deviations() == {}


def test_deviations_report_path_and_both_values():
    cfg = preset("full").with_overrides(
        {"eci.link.lanes_per_link": 4, "fpga.clock_mhz": 100.0}
    )
    deviations = cfg.deviations()
    assert deviations == {
        "eci.link.lanes_per_link": (12, 4),
        "fpga.clock_mhz": (300.0, 100.0),
    }


def test_describe_mentions_overrides():
    cfg = preset("full").with_overrides({"fpga.clock_mhz": 100.0})
    text = cfg.describe()
    assert "fpga.clock_mhz" in text
    assert "100.0" in text
    assert preset("full").describe().endswith("(pristine)")


def test_diff_between_presets():
    delta = preset("full").diff(preset("bringup_4lane"))
    assert delta["eci.link.lanes_per_link"] == (12, 4)
    assert delta["eci.links_used"] == (2, 1)
    assert delta["fpga.clock_mhz"] == (300.0, 100.0)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("turbo")
