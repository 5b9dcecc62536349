"""A serving run imports neither numpy nor networkx.

The accelerator classes price a request from the recsys and GBDT
throughput models, which need the model's shape and the platform, not
numpy tables or a trained ensemble; the BMC's sequencing solver is a
standard-library sort.  A fresh interpreter builds and runs a 1 ms
``rack_traffic`` scenario -- every request class, a machine kill and
background anti-entropy passes -- and reports which of the two packages
it loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

pytestmark = pytest.mark.traffic

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCENARIO = """
import json
import sys
from dataclasses import replace

from repro.config import FaultSpec, FaultsConfig, preset
from repro.faults import FaultInjector
from repro.fleet import AntiEntropyConfig, AntiEntropyScheduler, Rack
from repro.obs import MetricsRegistry
from repro.traffic import TrafficEngine

cfg = preset("rack_traffic")
fleet = replace(cfg.fleet, anti_entropy=AntiEntropyConfig(interval_ns=200_000.0))
traffic = replace(cfg.traffic, duration_ns=1_000_000.0)
obs = MetricsRegistry()
rack = Rack(fleet, obs=obs)
kill = FaultSpec("fleet.machine", "kill", at=500_000.0, arg="enzian3")
FaultInjector(FaultsConfig(events=(kill,)), obs=obs).arm_fleet(rack)
engine = TrafficEngine(rack, traffic, obs=obs)
scheduler = AntiEntropyScheduler(rack, obs=obs)
scheduler.start(until_ns=800_000.0)
report = engine.run()
print(json.dumps({
    "kinds": sorted(report["slo"]["classes"]),
    "passes": scheduler.stats["passes"],
    "killed": sorted(n for n, m in rack.machines.items() if not m.alive),
    "loaded": [name for name in ("numpy", "networkx") if name in sys.modules],
}))
"""


def test_serving_run_imports_neither_numpy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    # The guard only means something if the run took every path.
    assert result["kinds"] == ["gbdt", "kvs_get", "kvs_put", "recsys"]
    assert result["passes"] > 0
    assert result["killed"] == ["enzian3"]
    assert result["loaded"] == []
