"""FaultSpec/FaultsConfig validation and config-tree integration."""

import dataclasses
import math

import pytest

from repro.config import PlatformConfig, preset
from repro.faults import (
    SITE_KINDS,
    FaultRecoveryConfig,
    FaultSpec,
    FaultsConfig,
)


def test_site_kind_whitelist():
    with pytest.raises(ValueError):
        FaultSpec("quantum.bus", "bit_flip")
    with pytest.raises(ValueError):
        FaultSpec("eci.link", "drop")  # net-only kind
    for site, kinds in SITE_KINDS.items():
        for kind in kinds:
            if site == "fleet.partition":
                arg = "a,b>c" if kind == "oneway" else "a,b|c"
            elif site in ("bmc.rail", "boot.stage", "fleet.machine"):
                arg = "x"
            else:
                arg = ""
            spec = FaultSpec(
                site,
                kind,
                arg=arg,
                value=4.0 if kind == "lane_drop" else 0.0,
                duration=100.0 if site == "fleet.partition" else 0.0,
                rate=0.1
                if kind in ("crc_storm", "degraded_lane", "drop", "duplicate", "reorder")
                else 0.0,
            )
            assert spec.kind == kind


def test_health_site_kinds_whitelisted():
    """The degradation-policy fault kinds are legal plan entries."""
    assert "degraded_lane" in SITE_KINDS["eci.link"]
    assert "brownout" in SITE_KINDS["bmc.rail"]
    marginal = FaultSpec("eci.link", "degraded_lane", at=500.0, rate=0.3)
    assert "degraded_lane" in marginal.describe()
    brownout = FaultSpec("bmc.rail", "brownout", arg="VDD_CORE")
    assert brownout.arg == "VDD_CORE"
    with pytest.raises(ValueError):
        FaultSpec("eci.link", "degraded_lane")  # rate-based: needs rate
    with pytest.raises(ValueError):
        FaultSpec("bmc.rail", "brownout")  # needs arg=<rail>


def test_spec_field_validation():
    with pytest.raises(ValueError):
        FaultSpec("eci.link", "bit_flip", at=-1.0)
    with pytest.raises(ValueError):
        FaultSpec("eci.link", "bit_flip", count=0)
    with pytest.raises(ValueError):
        FaultSpec("net", "drop", rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec("net", "drop", rate=0.0)  # rate-based kinds need rate
    with pytest.raises(ValueError):
        FaultSpec("bmc.rail", "ocp")  # missing arg
    with pytest.raises(ValueError):
        FaultSpec("boot.stage", "hang")  # missing arg
    with pytest.raises(ValueError):
        FaultSpec("eci.link", "lane_drop")  # missing value
    with pytest.raises(ValueError):
        FaultSpec("eci.link", "crc_storm", rate=0.2, duration=-1.0)


def test_recovery_validation():
    with pytest.raises(ValueError):
        FaultRecoveryConfig(max_resequence_attempts=-1)
    for backoff in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FaultRecoveryConfig(resequence_backoff_s=backoff)
    for timeout in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="stage_timeout_s"):
            FaultRecoveryConfig(stage_timeout_s=timeout)
    # Defaults are fail-fast: recovery is opt-in.
    recovery = FaultRecoveryConfig()
    assert recovery.max_resequence_attempts == 0
    assert recovery.max_stage_retries == 0


def test_plan_enabled_and_queries():
    empty = FaultsConfig()
    assert not empty.enabled
    plan = FaultsConfig(
        events=(
            FaultSpec("eci.link", "bit_flip", at=100.0),
            FaultSpec("net", "drop", rate=0.1),
        )
    )
    assert plan.enabled
    assert len(plan.for_site("eci.link")) == 1
    assert plan.kinds() == {"bit_flip", "drop"}
    assert "eci.link/bit_flip" in plan.events[0].describe()


def test_faults_section_round_trips_through_dict_and_json():
    plan = FaultsConfig(
        seed=99,
        events=(
            FaultSpec("eci.link", "lane_drop", at=1_000.0, arg="1", value=4.0),
            FaultSpec("bmc.rail", "ocp", arg="VDD_CORE"),
        ),
        recovery=FaultRecoveryConfig(max_resequence_attempts=3),
    )
    cfg = dataclasses.replace(preset("full"), faults=plan)
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg
    assert PlatformConfig.from_json(cfg.to_json()) == cfg
    restored = PlatformConfig.from_json(cfg.to_json())
    assert restored.faults.events[0].kind == "lane_drop"
    assert restored.faults.recovery.max_resequence_attempts == 3


def test_health_fault_kinds_round_trip():
    """degraded_lane / brownout specs survive the dict/JSON round trip."""
    plan = FaultsConfig(
        seed=17,
        events=(
            FaultSpec("eci.link", "degraded_lane", at=2_000.0, rate=0.25, arg="0"),
            FaultSpec("bmc.rail", "brownout", arg="VDD_CORE", at=1.0),
        ),
    )
    cfg = dataclasses.replace(preset("full"), faults=plan)
    assert PlatformConfig.from_dict(cfg.to_dict()) == cfg
    restored = PlatformConfig.from_json(cfg.to_json())
    assert restored.faults.events[0].kind == "degraded_lane"
    assert restored.faults.events[1].kind == "brownout"
    assert restored.faults.kinds() == {"degraded_lane", "brownout"}


def test_faults_dotted_path_overrides():
    cfg = preset("full").with_overrides(
        {
            "faults.seed": 1234,
            "faults.recovery.max_stage_retries": 5,
        }
    )
    assert cfg.faults.seed == 1234
    assert cfg.faults.recovery.max_stage_retries == 5
    assert cfg.get("faults.recovery.max_stage_retries") == 5


def test_default_tree_has_empty_plan():
    """Every preset ships with fault injection disarmed."""
    for name in ("full", "bringup_4lane", "degraded"):
        assert not preset(name).faults.enabled


def test_partition_spec_validation():
    """fleet.partition specs: group syntax, window, and kind rules."""
    ok = FaultSpec(
        "fleet.partition", "split", at=10.0, duration=50.0,
        arg="enzian0,enzian1|enzian2",
    )
    assert "fleet.partition/split" in ok.describe()
    oneway = FaultSpec(
        "fleet.partition", "oneway", at=10.0, duration=50.0,
        arg="enzian0>enzian1",
    )
    assert oneway.kind == "oneway"
    with pytest.raises(ValueError):  # no groups at all
        FaultSpec("fleet.partition", "split", duration=50.0)
    with pytest.raises(ValueError):  # heal time required
        FaultSpec("fleet.partition", "split", arg="a|b")
    with pytest.raises(ValueError):  # only one group
        FaultSpec("fleet.partition", "split", duration=1.0, arg="a,b")
    with pytest.raises(ValueError):  # empty group
        FaultSpec("fleet.partition", "split", duration=1.0, arg="a|")
    with pytest.raises(ValueError):  # host in two groups
        FaultSpec("fleet.partition", "split", duration=1.0, arg="a,b|b,c")
    with pytest.raises(ValueError):  # oneway needs exactly two groups
        FaultSpec("fleet.partition", "oneway", duration=1.0, arg="a>b>c")


def test_parse_partition_groups():
    from repro.faults import parse_partition_groups

    groups = parse_partition_groups("b , a | c", "split")
    assert groups == (("a", "b"), ("c",))  # stripped, deduped, sorted
    assert parse_partition_groups("x>y,z", "oneway") == (("x",), ("y", "z"))
    with pytest.raises(ValueError):
        parse_partition_groups("x|y", "oneway")  # wrong separator


def test_partition_spec_round_trips_through_config_tree():
    spec = FaultSpec(
        "fleet.partition", "split", at=20_000.0, duration=80_000.0,
        arg="enzian0,enzian1,enzian2,enzian3|enzian4,enzian5",
    )
    config = preset("rack_quorum")
    config = dataclasses.replace(
        config, faults=FaultsConfig(events=(spec,))
    )
    rebuilt = PlatformConfig.from_dict(config.to_dict())
    assert rebuilt.faults.events == (spec,)
