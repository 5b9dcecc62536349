"""The serving path under faults: error accounting, retry budgets, and
circuit breakers.

Every scenario asserts the conservation law exactly --
``offered == completed + rejected_throttled + rejected_shed + errors``
-- whatever faults fire mid-run.  The fault knobs are all off by
default, so a plain gateway run stays bit-identical to one built
before they existed (pinned by the engine determinism tests)."""

import json

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack
from repro.health.breaker import BreakerState
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.sim import Kernel
from repro.traffic import TrafficConfig, TrafficEngine
from repro.traffic.config import GatewayConfig, RequestClassConfig
from repro.traffic.gateway import Gateway

pytestmark = [pytest.mark.traffic, pytest.mark.fleet, pytest.mark.chaos]

KVS_MIX = (
    RequestClassConfig("kvs_put", weight=1.0),
    RequestClassConfig("kvs_get", weight=3.0),
)


def _scenario(fleet_kw, traffic_kw, seed=0xFA11):
    fleet = FleetConfig(enabled=True, seed=seed, **fleet_kw)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    engine = TrafficEngine(
        rack, TrafficConfig(enabled=True, **traffic_kw), obs=obs
    )
    return engine, rack, obs


def _assert_conserved(gateway: dict) -> None:
    assert gateway["offered"] == (
        gateway["completed"]
        + gateway["rejected_throttled"]
        + gateway["rejected_shed"]
        + gateway["errors"]
    )


# -- satellite regression: FleetKvsError lands in per-class errors ----------


def _kill_run(seed=0xFA11, **gateway_kw):
    """A mid-run machine kill with client retries disabled, so every
    request in flight to the victim surfaces FleetKvsError."""
    engine, rack, obs = _scenario(
        dict(
            machines=4,
            replication_factor=3,
            max_retries=0,
        ),
        dict(
            users=50_000,
            per_user_rps=4.0,
            duration_ns=1_500_000.0,
            classes=KVS_MIX,
            gateway=GatewayConfig(cache_slots=0, **gateway_kw),
        ),
        seed=seed,
    )
    rack.kernel.call_at(700_000.0, lambda _=None: rack.kill("enzian1"))
    report = engine.run()
    return engine, rack, obs, report


def test_backend_kill_lands_in_per_class_error_counters():
    """A FleetKvsError raised mid-batch must count under ``errors``
    (split per class and reason in obs) and keep conservation exact."""
    _, _, obs, report = _kill_run()
    gateway = report["gateway"]
    assert gateway["errors"] > 0
    _assert_conserved(gateway)
    counted = sum(
        obs.counter(
            "traffic_errors_total", {"class": cls.kind, "reason": "backend"}
        ).value
        for cls in KVS_MIX
    )
    assert counted == gateway["errors"]


def test_backend_kill_errors_complete_their_requests():
    """Errored requests still resolve -- nothing hangs, the kernel
    drains, and completed + errors covers every admitted request."""
    engine, rack, _, report = _kill_run()
    gateway = report["gateway"]
    assert rack.kernel.pending_events == 0
    assert gateway["admitted"] == gateway["completed"] + gateway["errors"]


def test_kill_scenario_is_bit_identical_across_reruns():
    _, _, obs_a, first = _kill_run()
    _, _, obs_b, second = _kill_run()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    assert snapshot_jsonl(obs_a) == snapshot_jsonl(obs_b)


# -- retry budget -----------------------------------------------------------


def _partition_run(retry_budget, retry_limit=2):
    majority = ("enzian0", "enzian1", "enzian2", "enzian3")
    minority = ("enzian4", "enzian5")
    engine, rack, obs = _scenario(
        dict(
            machines=6,
            replication_factor=3,
            hinted_handoff=False,
        ),
        dict(
            users=30_000,
            per_user_rps=3.0,
            duration_ns=2_000_000.0,
            classes=KVS_MIX,
            gateway=GatewayConfig(
                cache_slots=0,
                retry_budget=retry_budget,
                retry_limit=retry_limit,
            ),
        ),
    )
    rack.kernel.call_at(
        400_000.0,
        lambda _=None: rack.start_partition(
            [majority, minority], until_ns=1_300_000.0
        ),
    )
    report = engine.run()
    return engine, obs, report


def test_retry_budget_recovers_requests_a_partition_would_fail():
    """With a retry budget, requests whose first attempt died inside
    the partition window get retried (often landing after the heal);
    without one, every such failure surfaces as an error."""
    _, obs, with_budget = _partition_run(retry_budget=0.5)
    _, _, without = _partition_run(retry_budget=0.0)
    assert with_budget["gateway"]["retries"] > 0
    assert without["gateway"]["retries"] == 0
    assert with_budget["gateway"]["errors"] < without["gateway"]["errors"]
    _assert_conserved(with_budget["gateway"])
    _assert_conserved(without["gateway"])
    counted = sum(
        obs.counter("traffic_retries_total", {"class": cls.kind}).value
        for cls in KVS_MIX
    )
    assert counted == with_budget["gateway"]["retries"]


def test_retry_budget_bounds_retries_to_a_fraction_of_admitted():
    """Finagle-style budget: tokens accrue per admitted request, so
    retries can never exceed budget * admitted (plus nothing -- the
    bucket starts empty and is capped)."""
    _, _, report = _partition_run(retry_budget=0.5)
    gateway = report["gateway"]
    assert gateway["retries"] <= 0.5 * gateway["admitted"]


# -- circuit breaker --------------------------------------------------------


def _breaker_run(**gateway_kw):
    engine, rack, obs = _scenario(
        dict(
            machines=4,
            replication_factor=3,
            max_retries=0,
        ),
        dict(
            users=50_000,
            per_user_rps=4.0,
            duration_ns=1_500_000.0,
            classes=KVS_MIX,
            gateway=GatewayConfig(
                cache_slots=0,
                breaker_enabled=True,
                breaker_failures=2,
                **gateway_kw,
            ),
        ),
    )

    def _kill_all_but_one(_=None):
        for name in ("enzian1", "enzian2", "enzian3"):
            rack.kill(name)

    rack.kernel.call_at(700_000.0, _kill_all_but_one)
    report = engine.run()
    return engine, obs, report


def test_breaker_trips_on_an_error_burst_and_sheds():
    """Killing three of four boards turns the survivor into a failing
    shard; after ``breaker_failures`` consecutive errors its breaker
    opens and subsequent requests shed as typed ``breaker`` rejections
    instead of queueing behind the dead backend."""
    engine, obs, report = _breaker_run(breaker_reset_ns=10_000_000.0)
    gateway = report["gateway"]
    assert gateway["shed_breaker"] > 0
    assert gateway["rejected_shed"] >= gateway["shed_breaker"]
    _assert_conserved(gateway)
    assert any(
        breaker.state is not BreakerState.CLOSED
        for breaker in engine.gateway.breakers.values()
    )
    counted = sum(
        obs.counter(
            "traffic_rejections_total",
            {"reason": "breaker", "class": cls.kind},
        ).value
        for cls in KVS_MIX
    )
    assert counted == gateway["shed_breaker"]


def test_breaker_stays_closed_on_a_healthy_rack():
    engine, rack, _ = _scenario(
        dict(machines=4, replication_factor=2),
        dict(
            users=20_000,
            per_user_rps=2.0,
            duration_ns=1_000_000.0,
            classes=KVS_MIX,
            gateway=GatewayConfig(cache_slots=0, breaker_enabled=True),
        ),
    )
    report = engine.run()
    gateway = report["gateway"]
    assert gateway["shed_breaker"] == 0
    assert gateway["errors"] == 0
    _assert_conserved(gateway)
    assert all(
        breaker.state is BreakerState.CLOSED
        for breaker in engine.gateway.breakers.values()
    )


# -- defaults ---------------------------------------------------------------


def test_fault_tolerance_knobs_are_off_by_default():
    """The default gateway carries no fault-tolerance machinery at
    all: no retries, no breaker objects."""
    config = GatewayConfig()
    assert config.retry_budget == 0.0
    assert config.breaker_enabled is False
    kernel = Kernel(seed=1)
    gateway = Gateway(kernel, config, [])
    assert gateway.breakers == {}
    assert gateway.retry_tokens == 0.0


def test_everything_on_chaos_run_conserves_exactly():
    """Both mechanisms at once, under a kill: the four-term law still
    balances to the request."""
    _, _, _, report = _kill_run(
        retry_budget=0.25,
        breaker_enabled=True,
        breaker_failures=3,
    )
    gateway = report["gateway"]
    _assert_conserved(gateway)
    assert gateway["offered"] > 0
