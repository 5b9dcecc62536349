"""Rack checkpoints: capture at quiescence, restore bit-identically.

The acceptance property of the subsystem: a checkpoint taken mid-soak
and restored must produce an observability export *bit-identical* to
the straight-through run -- an empty diff, across every counter, gauge,
histogram bucket, and recorded event.
"""

import dataclasses

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.snap import (
    Checkpoint,
    FleetSoak,
    SnapshotError,
    checkpoint_rack,
    restore_rack,
)
from repro.snap.protocol import restore, tagged

pytestmark = pytest.mark.snap

FLEET = FleetConfig(machines=4, replication_factor=2, seed=77)


def _build(fleet=FLEET, n_clients=1, ops=12):
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    clients = [rack.client(f"client{i}") for i in range(n_clients)]
    soak = FleetSoak(rack, clients, ops_per_epoch=ops)
    return rack, clients, soak


def _resume_soak(rack, clients, soak_tag, ops=12):
    soak = FleetSoak(rack, clients, ops_per_epoch=ops)
    restore(soak, soak_tag)
    return soak


@pytest.mark.parametrize("split", [1, 3])
def test_mid_soak_checkpoint_resumes_bit_identically(split):
    epochs = 6
    rack_a, _, soak_a = _build()
    soak_a.run(epochs)
    straight = snapshot_jsonl(rack_a.obs)

    rack_b, clients_b, soak_b = _build()
    soak_b.run(split)
    checkpoint = checkpoint_rack(rack_b, clients=clients_b)
    rack_c, clients_c = restore_rack(checkpoint)
    soak_c = _resume_soak(rack_c, clients_c, tagged(soak_b))
    soak_c.run(epochs - split)

    assert snapshot_jsonl(rack_c.obs) == straight


def test_checkpoint_survives_json_round_trip_exactly():
    rack, clients, soak = _build()
    soak.run(2)
    checkpoint = checkpoint_rack(rack, clients=clients)
    text = checkpoint.to_json()
    assert Checkpoint.from_json(text).to_json() == text


def test_restore_from_json_is_bit_identical_too():
    epochs = 4
    rack_a, _, soak_a = _build()
    soak_a.run(epochs)
    straight = snapshot_jsonl(rack_a.obs)

    rack_b, clients_b, soak_b = _build()
    soak_b.run(2)
    checkpoint = Checkpoint.from_json(
        checkpoint_rack(rack_b, clients=clients_b).to_json()
    )
    rack_c, clients_c = restore_rack(checkpoint)
    soak_c = _resume_soak(rack_c, clients_c, tagged(soak_b))
    soak_c.run(epochs - 2)
    assert snapshot_jsonl(rack_c.obs) == straight


def test_checkpoint_after_failover_restores_dead_board_dead():
    rack, clients, soak = _build()
    soak.run(2)
    assert rack.kill("enzian1")
    soak.run(1)
    checkpoint = checkpoint_rack(rack, clients=clients)

    restored, _ = restore_rack(checkpoint)
    assert restored.health_states()["enzian1"] == "failed"
    assert "enzian1" not in restored.ring.machines
    assert not restored.machines["enzian1"].server.alive
    # Promotion history carried over.
    assert restored.failovers == rack.failovers

    # And it still resumes bit-identically.
    soak_r = _resume_soak(restored, _, tagged(soak))
    soak_straight = soak
    soak_r.run(2)
    soak_straight.run(2)
    assert snapshot_jsonl(restored.obs) == snapshot_jsonl(rack.obs)


def test_checkpoint_refuses_non_quiescent_kernel():
    rack, clients, _ = _build()
    rack.kernel.call_after(10.0, lambda _: None)
    with pytest.raises(SnapshotError, match="quiescent"):
        checkpoint_rack(rack, clients=clients)


def test_store_snapshot_is_arena_exact():
    # Tombstone layout depends on history; the snapshot must carry it.
    rack, clients, soak = _build()
    store = rack.machines["enzian0"].store
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    store.delete(b"a")
    checkpoint = checkpoint_rack(rack, clients=clients)
    restored, _ = restore_rack(checkpoint)
    assert bytes(restored.machines["enzian0"].store.arena) == bytes(store.arena)
    assert restored.machines["enzian0"].store.items == store.items


def test_restore_rejects_schema_mismatch():
    rack, clients, _ = _build()
    checkpoint = checkpoint_rack(rack, clients=clients)
    # Schema 2 and 3 checkpoints embed a FleetConfig that still carries
    # deleted fields (``enabled``; the wire and service timings), so
    # they must fail with the typed error.
    for schema in (99, 2, 3):
        checkpoint.schema = schema
        with pytest.raises(SnapshotError, match="schema"):
            restore_rack(checkpoint)


def test_checkpoint_metadata():
    fleet = dataclasses.replace(FLEET, machines=3)
    rack, clients, soak = _build(fleet=fleet, n_clients=2)
    soak.run(1)
    checkpoint = checkpoint_rack(rack, clients=clients)
    assert checkpoint.meta["clients"] == ["client0", "client1"]
    assert checkpoint.meta["taken_at"] == rack.kernel.now
    assert sorted(checkpoint.meta["live"]) == ["enzian0", "enzian1", "enzian2"]
