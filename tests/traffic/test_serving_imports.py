"""A serving run loads only the modules it uses.

The accelerator classes price a request from the recsys and GBDT
throughput models, which need the model's shape and the platform, not
numpy tables or a trained ensemble; the BMC's sequencing solver is a
standard-library sort.  Package exports resolve on first use and the
config tree takes its hardware parameters from the :mod:`repro.params`
leaf, so a serving run loads none of the board models (ECI agents, the
boot chain, PMBus devices, the assembled platform) either.

A fresh interpreter builds and runs a 1 ms ``rack_traffic`` scenario --
every request class, a machine kill and background anti-entropy passes
-- and reports which modules it loaded, and which it first loaded while
the simulation ran.
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
engine.start()
before = set(sys.modules)
rack.kernel.run()
during = sorted(set(sys.modules) - before)
report = engine.report()
print(json.dumps({
    "kinds": sorted(report["slo"]["classes"]),
    "passes": scheduler.stats["passes"],
    "killed": sorted(n for n, m in rack.machines.items() if not m.alive),
    "loaded": [name for name in ("numpy", "networkx") if name in sys.modules],
    "repro": sorted(name for name in sys.modules if name.split(".")[0] == "repro"),
    "during": during,
}))
"""

#: Every ``repro`` module a serving run may load.  A new eager import on
#: the serving path fails the test until it is added here on purpose.
SERVING_MODULES = {
    "repro",
    "repro._exports",
    "repro.apps",
    "repro.apps.gbdt",
    "repro.apps.gbdt.accel",
    "repro.apps.kvs",
    "repro.apps.recsys",
    "repro.bmc",
    "repro.bmc.pmbus",
    "repro.config",
    "repro.config.schema",
    "repro.config.tree",
    "repro.faults",
    "repro.faults.inject",
    "repro.faults.plan",
    "repro.fleet",
    "repro.fleet.antientropy",
    "repro.fleet.config",
    "repro.fleet.errors",
    "repro.fleet.kvs",
    "repro.fleet.placement",
    "repro.fleet.rack",
    "repro.fleet.rollup",
    "repro.fpga",
    "repro.fpga.afu",
    "repro.fpga.fabric",
    "repro.health",
    "repro.health.breaker",
    "repro.health.config",
    "repro.health.state",
    "repro.memory",
    "repro.memory.dram",
    "repro.net",
    "repro.net.ethernet",
    "repro.net.switch",
    "repro.obs",
    "repro.obs.metrics",
    "repro.params",
    "repro.sim",
    "repro.sim.kernel",
    "repro.sim.units",
    "repro.traffic",
    "repro.traffic.arrivals",
    "repro.traffic.classes",
    "repro.traffic.config",
    "repro.traffic.engine",
    "repro.traffic.gateway",
}


@pytest.fixture(scope="module")
def serving_run():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    # The guards only mean something if the run took every path.
    assert result["kinds"] == ["gbdt", "kvs_get", "kvs_put", "recsys"]
    assert result["passes"] > 0
    assert result["killed"] == ["enzian3"]
    return result


def test_serving_run_imports_neither_numpy_nor_networkx(serving_run):
    assert serving_run["loaded"] == []


def test_serving_run_loads_only_the_allowed_repro_modules(serving_run):
    assert sorted(set(serving_run["repro"]) - SERVING_MODULES) == []


def test_no_module_is_first_imported_while_the_simulation_runs(serving_run):
    assert serving_run["during"] == []
