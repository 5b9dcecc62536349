"""Fleet determinism: fixed (seed, FleetConfig) => bit-identical runs.

This is the rack-scale version of the kernel's determinism contract:
the whole scenario -- topology build, replicated workload, a fault-plan
kill, failover, and the metrics rollup -- must reproduce exactly, down
to the JSON bytes of the rollup and the obs snapshot.  Different seeds
with stochastic elements (link loss) must diverge, proving the fixture
is sensitive enough to catch a lost draw.
"""

import json

import pytest

from repro.config import FaultSpec, FaultsConfig, FleetConfig
from repro.faults import FaultInjector
from repro.fleet import FleetRollup, Rack
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

pytestmark = pytest.mark.fleet


def _run(seed: int, machines: int = 4, kill: bool = True) -> dict:
    fleet = FleetConfig(machines=machines, replication_factor=2, seed=seed)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    client = rack.client()
    keys = [f"det-{i}".encode() for i in range(12)]
    if kill:
        victim = rack.ring.primary(keys[0])
        FaultInjector(
            FaultsConfig(
                events=(FaultSpec("fleet.machine", "kill", at=15_000.0, arg=victim),)
            ),
            obs=obs,
        ).arm_fleet(rack)

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, f"v{i}".encode())
        for key in keys:
            yield from client.get(key)

    rack.kernel.run_process(workload(), name="det-workload")
    return {
        "t_final": rack.kernel.now,
        "stats": dict(client.stats),
        "acked": {k.decode(): v.decode() for k, v in sorted(client.acked.items())},
        "report": rack.report(),
        "rollup": FleetRollup(obs).to_dict(),
        "snapshot": snapshot_jsonl(obs),
    }


def _canon(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def test_same_seed_same_everything():
    a = _run(seed=0xF1EE7)
    b = _run(seed=0xF1EE7)
    assert _canon(a) == _canon(b)


def test_three_seed_smoke():
    """The CI determinism smoke, in miniature: three seeds, two runs each."""
    for seed in (1, 2, 3):
        assert _canon(_run(seed)) == _canon(_run(seed))


def test_rollup_percentiles_are_reproducible():
    a = _run(seed=99)["rollup"]
    b = _run(seed=99)["rollup"]
    assert a["rack"]["p50"] == b["rack"]["p50"]
    assert a["rack"]["p99"] == b["rack"]["p99"]
    assert a["rack"]["count"] > 0


def test_machine_count_changes_the_run():
    """Sanity: the fixture is sensitive to topology, not just seed."""
    a = _run(seed=5, machines=4)
    b = _run(seed=5, machines=8)
    assert _canon(a) != _canon(b)
