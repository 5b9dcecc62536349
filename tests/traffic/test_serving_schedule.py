"""Pin the kernel event schedule of the serving front end.

A hot-path change to the traffic source, the request sampler, the
gateway or its histograms may remove work inside a callback, never a
``call_at`` or its moment.  These tests hold that rule to account for
``TrafficEngine.run()``: the recording kernel of the KVS schedule pin
logs the ``when`` of every ``call_at`` while three 1 ms mixes and a 1 ms cut
of the chaos scenario run at two seeds.  Each case is stored as four
values -- the sha256 of the repr'd ``when`` sequence, its length, the
final ``seq`` and the final ``now`` -- and must match a golden file.

* ``flash`` -- ``rack_traffic`` with its flash window moved inside the
  cut, so thinning accepts both inside and outside the window and both
  phases stamp requests;
* ``accel`` -- recsys:gbdt 2:1, Poisson: the accelerator path only;
* ``kvs`` -- kvs_put:kvs_get 3:1, Poisson, ``key_skew=1.0``;
* ``chaos`` -- the ``chaos_serving`` preset with the kill, the 4-vs-2 split and the flash crowd moved inside the cut and
  a 200 us anti-entropy interval, so the fault injector, two background
  passes, circuit breakers, budgeted retries and partition drops all
  land in the pinned schedule.

To regenerate after an intentional schedule change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/traffic/test_serving_schedule.py
"""

import hashlib
import json
import os
import pathlib
from dataclasses import replace

import pytest

from repro.config import FaultsConfig, preset
from repro.faults import FaultInjector
from repro.fleet import AntiEntropyScheduler, Rack
from repro.obs import MetricsRegistry
from repro.traffic import RequestClassConfig, TrafficEngine
from tests.fleet.test_event_schedule import RecordingKernel

pytestmark = pytest.mark.traffic

GOLDEN = pathlib.Path(__file__).parent / "data" / "serving_schedule.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

MIXES = ("flash", "accel", "kvs")
SEEDS = (5, 990951)


def _traffic(mix: str):
    traffic = replace(preset("rack_traffic").traffic, duration_ns=1_000_000.0)
    slo = {c.kind: c.slo_ns for c in traffic.classes}
    if mix == "flash":
        return replace(traffic, flash_at_ns=400_000.0, flash_duration_ns=300_000.0)
    if mix == "accel":
        kinds = (("recsys", 2.0), ("gbdt", 1.0))
        return replace(
            traffic,
            arrival="poisson",
            classes=tuple(RequestClassConfig(k, weight=w, slo_ns=slo[k]) for k, w in kinds),
        )
    kinds = (("kvs_put", 3.0), ("kvs_get", 1.0))
    return replace(
        traffic,
        arrival="poisson",
        key_skew=1.0,
        classes=tuple(RequestClassConfig(k, weight=w, slo_ns=slo[k]) for k, w in kinds),
    )


def _pin(kernel) -> dict:
    state = kernel.snapshot_state()
    return {
        "sha256": hashlib.sha256(repr(kernel.whens).encode()).hexdigest(),
        "calls": len(kernel.whens),
        "seq": state["seq"],
        "now": state["now"],
    }


def _schedule(mix: str, seed: int):
    fleet = replace(preset("rack_traffic").fleet, seed=seed)
    kernel = RecordingKernel(seed=seed)
    obs = MetricsRegistry()
    rack = Rack(fleet, kernel=kernel, obs=obs)
    report = TrafficEngine(rack, _traffic(mix), obs=obs).run()
    return _pin(kernel), report


#: The chaos cut's timeline: kill, split window and anti-entropy cadence.
CHAOS_KILL_AT_NS = 300_000.0
CHAOS_SPLIT_AT_NS = 400_000.0
CHAOS_SPLIT_DURATION_NS = 300_000.0
CHAOS_INTERVAL_NS = 200_000.0


def _chaos_schedule(seed: int):
    cfg = preset("chaos_serving").with_overrides({
        "fleet.seed": seed,
        "fleet.anti_entropy.interval_ns": CHAOS_INTERVAL_NS,
        "traffic.duration_ns": 1_000_000.0,
        "traffic.flash_at_ns": 200_000.0,
        "traffic.flash_duration_ns": 600_000.0,
    })
    kill, split = cfg.faults.events
    faults = FaultsConfig(
        events=(
            replace(kill, at=CHAOS_KILL_AT_NS),
            replace(split, at=CHAOS_SPLIT_AT_NS, duration=CHAOS_SPLIT_DURATION_NS),
        )
    )
    kernel = RecordingKernel(seed=seed)
    obs = MetricsRegistry()
    rack = Rack(cfg.fleet, kernel=kernel, obs=obs)
    FaultInjector(faults, obs=obs).arm_fleet(rack)
    engine = TrafficEngine(rack, cfg.traffic, obs=obs)
    scheduler = AntiEntropyScheduler(rack, obs=obs)
    scheduler.start(until_ns=CHAOS_SPLIT_AT_NS)
    report = engine.run()
    return _pin(kernel), report, scheduler.stats, rack.switch.stats


def _check_golden(case: str, got: dict) -> None:
    if REGEN:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[case] = got
        GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    assert GOLDEN.exists(), "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    assert got == json.loads(GOLDEN.read_text())[case]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", MIXES)
def test_serving_schedule_matches_golden(mix, seed):
    got, report = _schedule(mix, seed)
    if mix == "flash":
        # The flash case is only a pin if the window lies inside the cut.
        phases = report["slo"]["phases"]
        assert sum(c["count"] for c in phases["flash"].values()) > 0
        assert sum(c["count"] for c in phases["steady"].values()) > 0
    _check_golden(f"{mix}@{seed}", got)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_schedule_matches_golden(seed):
    got, report, anti_entropy, switch = _chaos_schedule(seed)
    # The chaos case is only a pin if every failover path runs in the cut.
    gateway = report["gateway"]
    assert anti_entropy["passes"] > 0
    assert gateway["shed_breaker"] > 0
    assert gateway["retries"] > 0
    assert gateway["errors"] > 0
    assert switch["dropped_partitioned"] > 0
    _check_golden(f"chaos@{seed}", got)
