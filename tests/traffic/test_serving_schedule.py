"""Pin the kernel event schedule of the serving front end.

A hot-path change to the traffic source, the request sampler, the
gateway or its histograms may remove work inside a callback, never a
``call_at`` or its moment.  These tests hold that rule to account for
``TrafficEngine.run()``: the recording kernel of the KVS schedule pin
logs the ``when`` of every ``call_at`` while three 1 ms mixes run at two
seeds.  Each case is stored as four values -- the sha256 of the repr'd
``when`` sequence, its length, the final ``seq`` and the final ``now`` --
and must match a golden file.

* ``flash`` -- ``rack_traffic`` with its flash window moved inside the
  cut, so thinning accepts both inside and outside the window and both
  phases stamp requests;
* ``accel`` -- recsys:gbdt 2:1, Poisson: the accelerator path only;
* ``kvs`` -- kvs_put:kvs_get 3:1, Poisson, ``key_skew=1.0``.

To regenerate after an intentional schedule change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/traffic/test_serving_schedule.py
"""

import hashlib
import json
import os
import pathlib
from dataclasses import replace

import pytest

from repro.config import preset
from repro.fleet import Rack
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


def _schedule(mix: str, seed: int):
    fleet = replace(preset("rack_traffic").fleet, seed=seed)
    kernel = RecordingKernel(seed=seed)
    obs = MetricsRegistry()
    rack = Rack(fleet, kernel=kernel, obs=obs)
    report = TrafficEngine(rack, _traffic(mix), obs=obs).run()
    state = kernel.snapshot_state()
    got = {
        "sha256": hashlib.sha256(repr(kernel.whens).encode()).hexdigest(),
        "calls": len(kernel.whens),
        "seq": state["seq"],
        "now": state["now"],
    }
    return got, report


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", MIXES)
def test_serving_schedule_matches_golden(mix, seed):
    got, report = _schedule(mix, seed)
    if mix == "flash":
        # The flash case is only a pin if the window lies inside the cut.
        phases = report["slo"]["phases"]
        assert sum(c["count"] for c in phases["flash"].values()) > 0
        assert sum(c["count"] for c in phases["steady"].values()) > 0
    case = f"{mix}@{seed}"
    if REGEN:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[case] = got
        GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    assert GOLDEN.exists(), "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    assert got == json.loads(GOLDEN.read_text())[case]
