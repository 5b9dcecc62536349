"""TrafficConfig validation, tree wiring, and round trips."""

import math

import pytest

from repro.config import ConfigError, PlatformConfig, TrafficConfig, preset
from repro.traffic import GatewayConfig, RequestClassConfig

pytestmark = pytest.mark.traffic


# -- validation ------------------------------------------------------------

def test_defaults_are_disabled_and_valid():
    cfg = TrafficConfig()
    # The gateway's fault-tolerance kit is off unless a scenario arms it.
    assert cfg.gateway.retry_budget == 0.0
    assert cfg.gateway.breaker_enabled is False
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
        # Non-finite floats: NaN slips past a plain ``<= 0`` check, and a
        # NaN or infinite window never closes the arrival source.
        {"per_user_rps": math.nan},
        {"per_user_rps": math.inf},
        {"duration_ns": math.nan},
        {"duration_ns": math.inf},
        {"flash_at_ns": math.nan},
        {"flash_at_ns": math.inf},
        {"flash_duration_ns": math.nan},
        {"flash_duration_ns": math.inf},
        {"flash_multiplier": math.nan},
        {"flash_multiplier": math.inf},
        {"key_skew": math.nan},
        {"key_skew": math.inf},
    ],
)
def test_invalid_traffic_values_raise(overrides):
    with pytest.raises(ValueError):
        TrafficConfig(**overrides)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["weight", "slo_ns"])
def test_request_class_values_must_be_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        RequestClassConfig("kvs_get", **{name: bad})


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
        {"retry_limit": 0},
        # Non-finite floats: a NaN admit_rps would silently disable the
        # token bucket.
        {"admit_rps": math.nan},
        {"admit_rps": math.inf},
        {"batch_window_ns": math.nan},
        {"batch_window_ns": math.inf},
        {"batch_overhead_ns": math.nan},
        {"batch_overhead_ns": math.inf},
        {"retry_budget": math.nan},
        {"retry_budget": math.inf},
        {"breaker_reset_ns": math.nan},
        {"breaker_reset_ns": math.inf},
    ],
)
def test_invalid_gateway_values_raise(overrides):
    with pytest.raises(ValueError):
        GatewayConfig(**overrides)


def test_base_rate_scales_with_population():
    cfg = TrafficConfig(users=1_000_000, per_user_rps=0.5)
    assert cfg.base_rate_per_ns == pytest.approx(0.5e-3)


# -- tree wiring -----------------------------------------------------------

def test_rack_traffic_preset_round_trips():
    cfg = preset("rack_traffic")
    assert cfg.traffic.users == 1_000_000
    assert cfg.traffic.arrival == "flash"
    assert cfg.traffic.flash_multiplier == 10.0
    assert cfg.fleet.write_quorum == 2
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg
    assert PlatformConfig.from_json(cfg.to_json()) == cfg


def test_dotted_overrides_reach_traffic_leaves():
    cfg = preset("full").with_overrides(
        {
            "traffic.users": 123,
            "traffic.gateway.admit_rps": 5_000.0,
        }
    )
    assert cfg.traffic.users == 123
    assert cfg.traffic.gateway.admit_rps == 5_000.0


def test_overrides_are_validated():
    with pytest.raises((ConfigError, ValueError)):
        preset("full").with_overrides({"traffic.arrival": "sometimes"})


def test_deviations_track_traffic_changes():
    cfg = preset("rack_traffic").with_overrides({"traffic.key_skew": 3.0})
    assert "traffic.key_skew" in cfg.deviations()

