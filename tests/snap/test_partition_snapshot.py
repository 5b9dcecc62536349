"""Partition windows survive checkpoint/restore.

The lazy partition design exists for exactly this: no heal timer sits
in the kernel queue, so a rack can reach quiescence *mid-split* and be
checkpointed.  The window descriptor travels in the snapshot; the
restored rack drops the same frames, heals at the same first touch past
the window, drains the same hints, and its metrics export diffs empty
against a straight-through run of the identical scenario.
"""

import pytest

from repro.config import FleetConfig
from repro.fleet import FleetKvsError, Rack, durability, read_acked, require
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.sim import Timeout
from repro.snap import Checkpoint, checkpoint_rack, restore_rack

pytestmark = [pytest.mark.snap, pytest.mark.partition]

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")
WINDOW = 3_000_000.0


def _build():
    obs = MetricsRegistry()
    rack = Rack(
        FleetConfig(
            machines=6,
            replication_factor=3,
            seed=0x51AB,
        ),
        obs=obs,
    )
    return rack, rack.client()


def _phase_split(rack, client):
    """Run up to a quiescent point *inside* the partition window."""

    def workload():
        for i in range(8):
            yield from client.put(f"ps-{i}".encode(), f"v{i}".encode())
        rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + WINDOW)
        for i in range(8, 16):
            try:
                yield from client.put(f"ps-{i}".encode(), f"w{i}".encode())
            except FleetKvsError:
                pass  # minority-placed keys are unavailable mid-split

    rack.kernel.run_process(workload())


def _phase_heal(rack, client):
    """Cross the window boundary and read every acked key back."""

    def workload():
        yield Timeout(WINDOW + 50_000.0)
        return (yield from read_acked(client, [client]))

    return rack.kernel.run_process(workload())


def test_checkpoint_mid_partition_restores_and_heals_bit_identically():
    # Straight-through reference run.
    rack_a, client_a = _build()
    _phase_split(rack_a, client_a)
    reads_a = _phase_heal(rack_a, client_a)
    straight = snapshot_jsonl(rack_a.obs)

    # Checkpointed run: capture at the mid-split quiescent point.
    rack_b, client_b = _build()
    _phase_split(rack_b, client_b)
    assert rack_b.active_partition is not None
    assert rack_b.kernel.pending_events == 0  # lazy window: no heal timer
    checkpoint = checkpoint_rack(rack_b, clients=(client_b,), kind="partition")

    rack_c, (client_c,) = restore_rack(checkpoint)
    assert rack_c.active_partition == rack_b.active_partition
    assert rack_c.switch.partition_active(rack_c.kernel.now)
    assert rack_c.ring_epoch == rack_b.ring_epoch
    reads_c = _phase_heal(rack_c, client_c)

    # The restored run healed on schedule: split cleared, hints drained.
    assert rack_c.active_partition is None
    assert [event for _, event, _ in rack_c.partitions] == ["start", "heal"]
    assert not any(m.server.hints for m in rack_c.machines.values())
    # No acked write lost across the checkpoint + heal.
    require(durability([client_c], reads_c))
    assert reads_c == reads_a
    # And the metrics diff against the uninterrupted run is empty.
    assert snapshot_jsonl(rack_c.obs) == straight


def test_mid_partition_checkpoint_survives_json_round_trip():
    rack, client = _build()
    _phase_split(rack, client)
    checkpoint = checkpoint_rack(rack, clients=(client,), kind="partition")
    text = checkpoint.to_json()
    assert Checkpoint.from_json(text).to_json() == text

    rack_r, (client_r,) = restore_rack(Checkpoint.from_json(text))
    assert rack_r.active_partition == rack.active_partition
    reads = _phase_heal(rack_r, client_r)
    require(durability([client_r], reads))
    assert rack_r.active_partition is None


def test_restored_partition_keeps_dropping_until_the_window_ends():
    """Mid-window restore: frames across the cut still die, and the
    drop counters resume from their checkpointed values."""
    rack_b, client_b = _build()
    _phase_split(rack_b, client_b)
    dropped_at_checkpoint = rack_b.switch.stats["dropped_partitioned"]
    assert dropped_at_checkpoint > 0
    checkpoint = checkpoint_rack(rack_b, clients=(client_b,), kind="partition")

    rack_c, (client_c,) = restore_rack(checkpoint)
    assert rack_c.switch.stats["dropped_partitioned"] == dropped_at_checkpoint
    min_key = next(
        f"post-{i}".encode()
        for i in range(20_000)
        if sum(m in MIN for m in rack_c.ring.place(f"post-{i}".encode())) >= 2
    )

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client_c.put(min_key, b"still-split")

    rack_c.kernel.run_process(workload())
    assert rack_c.switch.stats["dropped_partitioned"] > dropped_at_checkpoint
    assert rack_c.active_partition is not None  # window not over yet
