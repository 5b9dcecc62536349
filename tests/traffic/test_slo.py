"""The admission-control contrast, scaled down for CI.

A flash crowd pushes the offered rate past the backend's capacity.
With the gateway's token bucket on, the excess is turned away at the
door and every class's flash-phase p99 stays inside its SLO; with
admission off, the backlog grows for the whole window and the
flash-phase p99 blows through the objectives.  Same seed, same arrival
trace -- the only variable is the gateway policy.
"""

from dataclasses import replace

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack, conservation, no_errors, require
from repro.obs import MetricsRegistry
from repro.traffic import GatewayConfig, TrafficConfig, TrafficEngine

pytestmark = pytest.mark.traffic

FLEET = FleetConfig(
    machines=4,
    replication_factor=3,
    seed=0xA11C,
)

# A scaled-down rack_traffic scenario: base load ~25% of capacity, 12x crowd.
TRAFFIC = TrafficConfig(
    users=200_000,
    per_user_rps=3.0,
    duration_ns=6_000_000.0,
    arrival="flash",
    flash_at_ns=2_000_000.0,
    flash_duration_ns=2_000_000.0,
    flash_multiplier=12.0,
    gateway=GatewayConfig(admit_rps=700_000.0, max_queue_depth=64, workers=4),
)


def _run(admission: bool) -> dict:
    traffic = replace(
        TRAFFIC, gateway=replace(TRAFFIC.gateway, admission=admission)
    )
    obs = MetricsRegistry()
    rack = Rack(FLEET, obs=obs)
    return TrafficEngine(rack, traffic, obs=obs).run()


@pytest.fixture(scope="module")
def protected():
    return _run(admission=True)


@pytest.fixture(scope="module")
def unprotected():
    return _run(admission=False)


def test_same_seed_offers_the_same_load(protected, unprotected):
    assert protected["gateway"]["offered"] == unprotected["gateway"]["offered"]


def test_admission_protects_the_flash_phase_p99(protected):
    flash = protected["slo"]["phases"]["flash"]
    assert all(s["met"] for s in flash.values()), flash
    assert protected["gateway"]["rejected_throttled"] > 0
    assert protected["gateway"]["rejected_shed"] > 0
    assert protected["gateway"]["max_queue_depth"] <= 64


def test_without_admission_the_flash_crowd_violates_the_slo(unprotected):
    flash = unprotected["slo"]["phases"]["flash"]
    assert not all(s["met"] for s in flash.values()), (
        "the crowd no longer stresses the backend; retune the scenario"
    )
    assert unprotected["gateway"]["rejected_throttled"] == 0
    assert unprotected["gateway"]["completed"] == unprotected["gateway"]["offered"]


def test_protection_costs_throughput_not_correctness(protected, unprotected):
    """What admission buys (bounded tails) and what it costs (turned-away
    load): the protected run completes fewer requests, but neither run
    loses or double-counts any."""
    assert protected["gateway"]["completed"] < unprotected["gateway"]["completed"]
    for report in (protected, unprotected):
        require(conservation(report["gateway"]) + no_errors(report["gateway"]))
