"""Machine rejoin: a killed board re-enters the ring and serves again.

ROADMAP item-1 headroom, second half: :meth:`Rack.rejoin` walks the
recovery ladder (FAILED -> RECOVERING -> HEALTHY), brings the board
back empty, extends the ring with it (via :meth:`HashRing.extended`),
and re-replicates so the rejoined board holds every shard placement
now assigns it.

Two invariants are pinned: *placement* -- removing then re-adding a
machine yields exactly the original ring, because the ring is a pure
function of its membership -- and *durability* -- no acknowledged write
is lost across the kill/rejoin cycle.
"""

import pytest

from repro.config import FleetConfig
from repro.fleet import FleetError, Rack, RackError, durability, read_acked, require
from repro.fleet.placement import HashRing
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.fleet

FLEET = FleetConfig(machines=4, replication_factor=2, seed=606)


def _loaded_rack(n_keys=24):
    obs = MetricsRegistry()
    rack = Rack(FLEET, obs=obs)
    client = rack.client()
    keys = [f"rj-{i:03d}".encode() for i in range(n_keys)]

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, f"value-{i}".encode())

    rack.kernel.run_process(workload())
    return rack, client, keys


def test_ring_placement_is_invariant_under_remove_then_extend():
    ring = HashRing([f"m{i}" for i in range(6)], vnodes=32, replication_factor=2)
    round_trip = ring.removed("m3").extended("m3")
    keys = [f"key-{i}".encode() for i in range(200)]
    assert [ring.place(k) for k in keys] == [round_trip.place(k) for k in keys]


def test_rejoin_restores_ring_and_health():
    rack, client, keys = _loaded_rack()
    victim = rack.ring.primary(keys[0])
    ring_before = rack.ring
    rack.kill(victim)
    assert victim not in rack.ring.machines

    assert rack.rejoin(victim)
    assert victim in rack.ring.machines
    assert rack.health_states()[victim] == "healthy"
    assert rack.machines[victim].server.alive
    # Placement invariant: the rejoined ring places exactly as before.
    assert [rack.ring.place(k) for k in keys] == [
        ring_before.place(k) for k in keys
    ]
    # The recovery walked the ladder, not a teleport.
    transitions = [
        (frm, to) for _, frm, to, _ in rack.machines[victim].health.history
    ]
    assert ("failed", "recovering") in transitions
    assert ("recovering", "healthy") in transitions


def test_rejoin_of_live_machine_raises():
    """Rejoining a board that never died is caller confusion: extending
    the ring with a live member would corrupt placement, so the rack
    refuses with a typed error instead of returning a soft False."""
    rack, client, keys = _loaded_rack()
    with pytest.raises(RackError, match="already live"):
        rack.rejoin("enzian0")
    # The refused rejoin changed nothing: ring intact, health untouched.
    assert sorted(rack.ring.machines) == sorted(rack.machines)
    assert rack.health_states()["enzian0"] == "healthy"


def test_rejoin_of_unknown_machine_raises():
    rack, client, keys = _loaded_rack()
    with pytest.raises(RackError, match="unknown machine"):
        rack.rejoin("enzian99")
    assert sorted(rack.ring.machines) == sorted(rack.machines)


def test_rack_errors_are_fleet_errors():
    rack, client, keys = _loaded_rack()
    with pytest.raises(FleetError):
        rack.rejoin("enzian0")


def test_no_acked_write_lost_across_kill_and_rejoin():
    rack, client, keys = _loaded_rack()
    victim = rack.ring.primary(keys[0])
    rack.kill(victim)
    rack.re_replicate()
    rack.rejoin(victim)
    reads = rack.kernel.run_process(read_acked(client, [client]))
    require(durability([client], reads))


def test_rejoined_board_holds_its_placements():
    rack, client, keys = _loaded_rack()
    victim = rack.ring.primary(keys[0])
    rack.kill(victim)
    rack.re_replicate()
    rack.rejoin(victim)
    # Every acked key the ring now places on the rejoined board is
    # actually stored there (rejoin ran its own re_replicate pass).
    store = rack.machines[victim].store
    for key, value in client.acked.items():
        if victim in rack.ring.place(key):
            assert store.get(key) == value


def test_rejoin_durability_after_subsequent_failure():
    """Kill A, repair, rejoin A, kill B: still nothing lost."""
    rack, client, keys = _loaded_rack()
    first = rack.ring.primary(keys[0])
    rack.kill(first)
    rack.re_replicate()
    rack.rejoin(first)
    second = rack.ring.primary(keys[1])
    rack.kill(second)
    rack.re_replicate()
    reads = rack.kernel.run_process(read_acked(client, [client]))
    require(durability([client], reads))
