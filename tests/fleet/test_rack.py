"""Rack construction, config wiring, and the health-driven failover path."""

import pytest

from repro.config import FleetConfig, preset
from repro.fleet import Rack, RackError
from repro.obs import MetricsRegistry
from repro.sim import Kernel

pytestmark = pytest.mark.fleet


def _fleet(**overrides):
    defaults = dict(machines=4, replication_factor=2)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def test_rack_builds_from_fleet_config():
    rack = Rack(_fleet())
    assert sorted(rack.machines) == ["enzian0", "enzian1", "enzian2", "enzian3"]
    assert rack.ring.machines == ("enzian0", "enzian1", "enzian2", "enzian3")
    assert set(rack.switch.ports) == set(rack.machines)
    assert rack.live_machines() == ("enzian0", "enzian1", "enzian2", "enzian3")
    for machine in rack.machines.values():
        assert machine.alive


def test_rack8_preset_wires_the_fleet_section():
    cfg = preset("rack8")
    assert cfg.fleet.machines == 8
    assert cfg.fleet.replication_factor == 2
    assert (cfg.fleet.write_quorum, cfg.fleet.read_quorum) == (2, 1)
    assert not cfg.deviations()
    rack = Rack(cfg.fleet)
    assert len(rack.machines) == 8


def test_kill_fails_over_through_health_machine():
    obs = MetricsRegistry()
    rack = Rack(_fleet(), obs=obs)
    assert rack.kill("enzian1", reason="test")
    assert rack.health_states()["enzian1"] == "failed"
    assert "enzian1" not in rack.ring.machines
    assert not rack.machines["enzian1"].server.alive
    assert rack.live_machines() == ("enzian0", "enzian2", "enzian3")
    assert [m for _, m, _ in rack.failovers] == ["enzian1"]
    assert obs.counter("fleet_failovers_total", {"machine": "enzian1"}).value == 1
    assert obs.gauge("fleet_machines_live").value == 3
    # Killing a dead machine is an explicit no-op.
    assert not rack.kill("enzian1")
    assert len(rack.failovers) == 1


def test_external_health_failure_is_picked_up_by_sync():
    """A supervisor failing the machine directly (not via kill) works too."""
    rack = Rack(_fleet())
    rack.machines["enzian2"].health.fail("watchdog")
    removed = rack.sync_health()
    assert removed == ["enzian2"]
    assert "enzian2" not in rack.ring.machines


def test_unknown_machine_raises_rack_error():
    rack = Rack(_fleet())
    with pytest.raises(RackError, match="unknown machine"):
        rack.kill("enzian99")


def test_rack_accepts_external_kernel():
    kernel = Kernel(seed=7)
    rack = Rack(_fleet(machines=2), kernel=kernel)
    assert rack.kernel is kernel


def test_report_shape():
    rack = Rack(_fleet())
    rack.kill("enzian0")
    report = rack.report()
    assert report["machines"] == 4
    assert report["live"] == ["enzian1", "enzian2", "enzian3"]
    assert report["health"]["enzian0"] == "failed"
    assert report["failovers"][0]["machine"] == "enzian0"
    assert set(report["served"]) == set(rack.machines)


def test_fleet_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(machines=1)
    with pytest.raises(ValueError):
        FleetConfig(machines=4, replication_factor=5)
    with pytest.raises(ValueError):
        FleetConfig(max_retries=-1)


def test_fleet_section_round_trips_and_overrides():
    cfg = preset("full").with_overrides(
        {"fleet.machines": 6, "fleet.replication_factor": 3}
    )
    assert cfg.fleet.machines == 6
    from repro.config import PlatformConfig

    assert PlatformConfig.from_json(cfg.to_json()) == cfg
    assert cfg.get("fleet.replication_factor") == 3
