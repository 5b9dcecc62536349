"""Fleet rack scenario: throughput/latency shape of the sharded KVS.

Like the perf-kernel smokes, these assert *scenario health and
determinism*, not wall-clock rates: the rack completes a replicated
workload, the obs rollup sees every request, scaling the rack out
spreads load across more shards, and the whole scenario is
bit-identical for a fixed seed.  The fleet section acts only once a
:class:`Rack` is built from it, so the benches that build none never
touch this subsystem.
"""

import json

import pytest

from repro.config import FleetConfig
from repro.fleet import FleetRollup, Rack
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

pytestmark = pytest.mark.fleet

N_OPS = 64


def _run_rack(machines: int, seed: int = 0xBE9C) -> dict:
    fleet = FleetConfig(machines=machines, replication_factor=2, seed=seed)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    client = rack.client()
    keys = [f"bench:{i:05d}".encode() for i in range(N_OPS)]

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, b"x" * 64)
        for key in keys:
            yield from client.get(key)

    rack.kernel.run_process(workload(), name="bench-workload")
    rollup = FleetRollup(obs)
    return {
        "t_final": rack.kernel.now,
        "stats": dict(client.stats),
        "served": {n: m.server.stats["served"] for n, m in rack.machines.items()},
        "rollup": rollup.to_dict(),
        "snapshot": snapshot_jsonl(obs),
    }


def test_rack_workload_completes_and_rolls_up():
    out = _run_rack(machines=4)
    assert out["stats"]["puts_acked"] == N_OPS
    assert out["stats"]["gets"] == N_OPS
    assert out["stats"]["timeouts"] == 0
    rack_series = out["rollup"]["rack"]
    assert rack_series["count"] == 2 * N_OPS
    assert 0 < rack_series["p50"] <= rack_series["p99"]


def test_scaling_out_spreads_load():
    """More machines => no shard serves everything (consistent hashing
    spreads the keyspace), and every live shard serves something."""
    out = _run_rack(machines=8)
    served = out["served"]
    total = sum(served.values())
    assert total > 0
    assert max(served.values()) < total  # no single-shard hotspot
    assert all(v > 0 for v in served.values())


def test_rack_scenario_is_deterministic():
    a = _run_rack(machines=4)
    b = _run_rack(machines=4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
