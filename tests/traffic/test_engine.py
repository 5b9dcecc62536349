"""TrafficEngine integration: conservation, determinism, reporting."""

import json

import pytest

from repro.config import FleetConfig, preset
from repro.fleet import Rack, conservation, no_errors, require
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.traffic import TrafficConfig, TrafficEngine

pytestmark = pytest.mark.traffic


def _fleet(**overrides):
    defaults = dict(machines=4, replication_factor=2, seed=0xBEEF)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _traffic(**overrides):
    defaults = dict(
        users=20_000,
        per_user_rps=2.0,
        duration_ns=1_500_000.0,
        arrival="poisson",
    )
    defaults.update(overrides)
    return TrafficConfig(**defaults)


def _run(fleet=None, traffic=None):
    fleet = fleet if fleet is not None else _fleet()
    traffic = traffic if traffic is not None else _traffic()
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    engine = TrafficEngine(rack, traffic, obs=obs)
    report = engine.run()
    report["snapshot"] = snapshot_jsonl(obs)
    return engine, report


def test_open_loop_conserves_every_offered_request():
    _, report = _run()
    gateway = report["gateway"]
    assert gateway["offered"] > 0
    require(conservation(gateway) + no_errors(gateway))


def test_open_loop_scenario_is_bit_identical_across_reruns():
    _, first = _run()
    _, second = _run()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_different_seeds_give_different_traces():
    _, first = _run()
    _, second = _run(fleet=_fleet(seed=0xBEE0))
    assert first["gateway"]["offered"] != second["gateway"]["offered"]


def test_report_structure_and_slo_fields():
    _, report = _run()
    assert set(report["slo"]["classes"]) == {
        "kvs_put", "kvs_get", "recsys", "gbdt"
    }
    for summary in report["slo"]["classes"].values():
        assert {"count", "p50_ns", "p99_ns", "p999_ns", "slo_ns",
                "attainment", "met"} <= set(summary)
    assert set(report["slo"]["phases"]) == {"steady"}
    assert report["scenario"]["admission"] is True


def test_flash_scenario_labels_both_phases():
    traffic = _traffic(
        arrival="flash",
        duration_ns=2_000_000.0,
        flash_at_ns=800_000.0,
        flash_duration_ns=600_000.0,
        flash_multiplier=4.0,
    )
    _, report = _run(traffic=traffic)
    phases = report["slo"]["phases"]
    assert set(phases) == {"steady", "flash"}
    assert sum(s["count"] for s in phases["flash"].values()) > 0


def test_offered_counters_reach_the_registry():
    obs = MetricsRegistry()
    rack = Rack(_fleet(), obs=obs)
    TrafficEngine(rack, _traffic(), obs=obs).run()
    doc = snapshot_jsonl(obs)
    assert "traffic_offered_total" in doc
    assert "traffic_request_latency_ns" in doc


def test_an_engine_over_a_rack_without_a_registry_still_measures():
    """The gateway counts into a private registry when the rack has
    none, so the report matches a run with one instead of reading an
    empty registry (every class ``count`` 0 and ``met``)."""
    cfg = preset("rack_traffic").with_overrides({"traffic.duration_ns": 2_000_000.0})
    reports = []
    for obs in (MetricsRegistry(), None):
        rack = Rack(cfg.fleet, obs=obs)
        reports.append(TrafficEngine(rack, cfg.traffic).run())
    observed, bare = reports
    assert sum(s["count"] for s in bare["slo"]["classes"].values()) > 0
    for block in ("gateway", "cache", "slo"):
        assert bare[block] == observed[block], block


def test_disabled_traffic_leaves_fleet_runs_bit_identical():
    """The traffic section acts only through a TrafficEngine: a fleet
    workload that builds none must not consume any extra RNG or
    schedule anything, so its metrics are byte-identical run to run."""
    def fleet_run():
        obs = MetricsRegistry()
        rack = Rack(preset("rack_quorum").fleet, obs=obs)
        client = rack.client()

        def workload():
            for i in range(12):
                yield from client.put(b"k%d" % i, b"v")
                yield from client.get(b"k%d" % i)

        rack.kernel.run_process(workload())
        return snapshot_jsonl(obs)

    assert fleet_run() == fleet_run()
