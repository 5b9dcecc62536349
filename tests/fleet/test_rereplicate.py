"""Re-replication: the durability repair after failover.

ROADMAP item-1 headroom: after :meth:`Rack.kill` promotes a survivor,
the promoted shards hold only one copy of their keys -- a second
failure would lose acknowledged writes.  :meth:`Rack.re_replicate`
restores the invariant: every key a client holds an ack for is stored
on at least ``min(replication_factor, live)`` machines.
"""

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack, durability, read_acked, require
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.fleet

FLEET = FleetConfig(machines=5, replication_factor=2, seed=212)


def _loaded_rack(n_keys=30):
    obs = MetricsRegistry()
    rack = Rack(FLEET, obs=obs)
    client = rack.client()
    keys = [f"rr-{i:03d}".encode() for i in range(n_keys)]

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, f"value-{i}".encode())

    rack.kernel.run_process(workload())
    return rack, client, keys


def _copies(rack, key):
    return [
        name
        for name in rack.live_machines()
        if rack.machines[name].store.get(key) is not None
    ]


def durability_audit(rack, client):
    """Every acked key is held by min(rf, live) live machines."""
    want = min(rack.fleet.replication_factor, len(rack.live_machines()))
    for key, value in client.acked.items():
        holders = _copies(rack, key)
        assert len(holders) >= want, (
            f"{key!r} under-replicated: {holders} (want {want})"
        )
        # And the copies agree on the value.
        for name in holders:
            assert rack.machines[name].store.get(key) == value


def test_kill_leaves_promoted_shards_under_replicated():
    rack, client, keys = _loaded_rack()
    victim = rack.ring.primary(keys[0])
    rack.kill(victim)
    under = [k for k in client.acked if len(_copies(rack, k)) < 2]
    assert under, "the kill should strand at least one single-copy shard"


def test_re_replicate_restores_durability_invariant():
    rack, client, keys = _loaded_rack()
    victim = rack.ring.primary(keys[0])
    rack.kill(victim)
    copied = rack.re_replicate()
    assert copied > 0
    durability_audit(rack, client)


def test_re_replicate_is_idempotent():
    rack, client, keys = _loaded_rack()
    rack.kill(rack.ring.primary(keys[0]))
    assert rack.re_replicate() > 0
    assert rack.re_replicate() == 0  # second pass finds nothing to do


def test_re_replicate_counts_in_obs():
    rack, client, keys = _loaded_rack()
    rack.kill(rack.ring.primary(keys[0]))
    copied = rack.re_replicate()
    counter = rack.obs.counter("fleet_rereplicated_keys_total")
    assert counter.value == copied


def test_survives_second_failure_after_repair():
    """The point of the exercise: repair, kill again, lose nothing."""
    rack, client, keys = _loaded_rack()
    first = rack.ring.primary(keys[0])
    rack.kill(first)
    rack.re_replicate()
    # Kill the machine now primarying the same shard.
    second = rack.ring.primary(keys[0])
    rack.kill(second)
    reads = rack.kernel.run_process(read_acked(client, [client]))
    require(durability([client], reads))
