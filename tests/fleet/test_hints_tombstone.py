"""Hinted handoff of *deletes*: tombstones ride the hint queue.

A delete committed at quorum while a replica is cut off must reach
that replica as a tombstone at the heal -- otherwise the deleted value
resurrects.  These tests pin the ``apply_hint``/``take_hints``
round-trip with ``tombstone=True``, the end-to-end
delete-under-partition path, and the deposed-board rule (a board voted
out of the ring rebuilds from live replicas at rejoin, so its queued
hints are dropped, tombstones included)."""

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack
from repro.fleet.kvs import NO_VERSION
from repro.obs import MetricsRegistry
from repro.sim import Timeout

pytestmark = [pytest.mark.fleet, pytest.mark.partition, pytest.mark.chaos]

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")


def _rack(**overrides):
    defaults = dict(
        machines=6,
        replication_factor=3,
        hinted_handoff=True,
        seed=0x70B5,
    )
    defaults.update(overrides)
    obs = MetricsRegistry()
    rack = Rack(FleetConfig(**defaults), obs=obs)
    return rack, rack.client()


def _hintable_key(rack, prefix="ht"):
    """Majority primary, exactly one cut-off replica: commits at w=2
    and queues one hinted handoff for the minority copy."""
    for i in range(20_000):
        key = f"{prefix}-{i}".encode()
        place = rack.ring.place(key)
        if place[0] in MAJ and sum(m in MIN for m in place) == 1:
            return key
    raise AssertionError("no hintable key found")


# -- unit: the server-side round-trip ---------------------------------------


def test_apply_hint_tombstone_round_trip():
    rack, _ = _rack()
    server = rack.machines["enzian0"].server
    key = b"tomb-k"
    assert server.apply_hint(key, b"v1", (1, 1), False)
    assert server.store.get(key) == b"v1"
    # The tombstone supersedes the value: store entry gone, version kept.
    assert server.apply_hint(key, b"", (1, 2), True)
    assert server.store.get(key) is None
    assert server.versions[key] == (1, 2)
    # Same-version replay and an older write both lose to the tombstone.
    assert not server.apply_hint(key, b"", (1, 2), True)
    assert not server.apply_hint(key, b"stale", (1, 1), False)
    assert server.store.get(key) is None


def test_take_hints_drains_tombstones_and_clears_the_queue():
    rack, _ = _rack()
    server = rack.machines["enzian0"].server
    entry = (b"tomb-k", b"", (2, 7), True)
    server.hints.setdefault("enzian4", []).append(entry)
    drained = server.take_hints()
    assert drained == {"enzian4": [entry]}
    assert server.hints == {}
    assert server.take_hints() == {}


def test_versionless_entries_never_beat_a_tombstone():
    rack, _ = _rack()
    server = rack.machines["enzian0"].server
    key = b"tomb-nv"
    assert server.apply_hint(key, b"", (3, 1), True)
    assert server.versions.get(key, NO_VERSION) == (3, 1)
    assert not server.apply_hint(key, b"old", NO_VERSION, False)
    assert server.store.get(key) is None


# -- end-to-end: delete under partition, heal, no resurrection ---------------


def test_delete_hint_reaches_the_cut_off_replica_at_heal():
    rack, client = _rack()
    key = _hintable_key(rack)
    cutoff = next(m for m in rack.ring.place(key) if m in MIN)
    window = 600_000.0

    def workload():
        yield from client.put(key, b"doomed")
        rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + window)
        yield from client.delete(key)
        yield Timeout(window + 50_000.0)
        # First touch past the window heals and drains the hints.
        value = yield from client.get(key)
        assert value is None

    rack.kernel.run_process(workload())
    rack.maybe_heal()
    assert rack.active_partition is None
    server = rack.machines[cutoff].server
    # The tombstone landed: no stored value, and the replica's version
    # proves it saw the delete (not merely never the value).
    assert server.store.get(key) is None
    assert server.versions.get(key, NO_VERSION) > NO_VERSION
    assert not any(m.server.hints for m in rack.machines.values())


def test_deposed_boards_queued_hints_are_dropped():
    """Kill the hint's target while it is cut off: the board leaves
    the ring, and the heal discards its queued hints (tombstones
    included) instead of retrying forever -- rejoin rebuilds from live
    replicas instead."""
    rack, client = _rack()
    key = _hintable_key(rack)
    cutoff = next(m for m in rack.ring.place(key) if m in MIN)
    window = 600_000.0

    def workload():
        yield from client.put(key, b"doomed")
        rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + window)
        yield from client.delete(key)

    rack.kernel.run_process(workload())
    carriers = [
        name
        for name, machine in rack.machines.items()
        if cutoff in machine.server.hints
    ]
    assert carriers, "the delete should have queued a hint for the cutoff"
    rack.kill(cutoff)
    assert cutoff not in rack.ring.machines

    def heal():
        yield Timeout(window + 50_000.0)
        yield from client.get(key)

    rack.kernel.run_process(heal())
    rack.maybe_heal()
    assert rack.active_partition is None
    assert not any(
        cutoff in machine.server.hints for machine in rack.machines.values()
    )
