"""The PlatformConfig tree: round trips, strict validation, overrides,
and provenance."""

import json
import math
import re

import pytest

from repro.config import ConfigError, PlatformConfig, preset, preset_names
from repro.config.schema import encode
from repro.eci import EciLinkParams


# -- round trips -----------------------------------------------------------

@pytest.mark.parametrize("name", ["full", "bringup_4lane", "degraded", "chaos_serving"])
def test_preset_dict_round_trip(name):
    cfg = preset(name)
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("name", ["full", "bringup_4lane", "degraded", "chaos_serving"])
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


def _leaf_paths(tree, leaf_type, path=""):
    for key, value in tree.items():
        leaf = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaf_paths(value, leaf_type, leaf)
        elif type(value) is leaf_type:
            yield leaf


def _nested(path, value):
    doc = value
    for part in reversed(path.split(".")):
        doc = {part: doc}
    return doc


def test_non_finite_float_leaf_names_dotted_path():
    paths = list(_leaf_paths(encode(preset("full")), float))
    assert len(paths) > 50
    accepted = []
    for path in paths:
        for value in (math.nan, math.inf, -math.inf):
            for build in (
                lambda: preset("full").with_overrides({path: value}),
                lambda: PlatformConfig.from_dict(_nested(path, value)),
            ):
                try:
                    build()
                except ConfigError as exc:
                    if exc.path != path:
                        accepted.append((path, value, exc.path))
                else:
                    accepted.append((path, value))
    assert not accepted


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


# -- integers too large for a float -----------------------------------------

#: Too large for a float; past the int digit limit, even repr() raises.
HUGE = 10**5000


@pytest.mark.parametrize(
    "build",
    [
        lambda: PlatformConfig.from_dict({"fpga": {"clock_mhz": HUGE}}),
        lambda: preset("full").with_overrides({"fpga.clock_mhz": HUGE}),
    ],
    ids=["from_dict", "with_overrides"],
)
def test_integer_too_large_for_a_float_names_dotted_path(build):
    with pytest.raises(ConfigError, match="too large") as info:
        build()
    assert info.value.path == "fpga.clock_mhz"


def test_integer_past_the_digit_limit_in_any_int_leaf_names_dotted_path():
    paths = list(_leaf_paths(encode(preset("full")), int))
    assert len(paths) > 50
    accepted = []
    for path in paths:
        for build in (
            lambda: preset("full").with_overrides({path: HUGE}),
            lambda: PlatformConfig.from_dict(_nested(path, HUGE)),
        ):
            try:
                build()
            except ConfigError as exc:
                if exc.path != path or "too large" not in exc.message:
                    accepted.append((path, exc.path, exc.message))
            else:
                accepted.append(path)
    assert not accepted


def test_json_integer_past_the_digit_limit_raises_config_error():
    with pytest.raises(ConfigError, match="invalid JSON"):
        PlatformConfig.from_json('{"fpga": {"clock_mhz": 1' + "0" * 5000 + "}}")


@pytest.mark.parametrize(
    "path, value",
    [
        ("preset", HUGE),
        ("fleet.hinted_handoff", HUGE),
        ("traffic.classes", HUGE),
        ("fleet.machines", [HUGE]),
    ],
    ids=["str", "bool", "tuple", "int"],
)
@pytest.mark.parametrize("how", ["with_overrides", "from_dict"])
def test_huge_integer_in_a_non_float_field_names_dotted_path(path, value, how):
    with pytest.raises(ConfigError, match="expected a") as info:
        if how == "with_overrides":
            preset("full").with_overrides({path: value})
        else:
            PlatformConfig.from_dict(_nested(path, value))
    assert info.value.path == path
