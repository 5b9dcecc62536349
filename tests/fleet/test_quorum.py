"""Quorum replication: versioned writes, quorum reads, epochs, repair.

Every rack runs one protocol: the key's primary stamps a per-key
``(epoch, seq)`` version and fans ``replicate`` copies out, every
participant acks directly to the client, and the put commits at ``w``
acks.  Reads consult all placement targets, commit at ``r`` responses,
return the highest version, and read-repair stale copies.  ``w`` and
``r`` are majorities derived from the replication factor.  These tests
pin the protocol mechanics in isolation; the partition end-to-end
scenarios live in ``test_partition.py``.
"""

import pytest

from repro.config import FleetConfig
from repro.fleet import FleetKvsError, Rack, durability, read_acked, require
from repro.fleet.kvs import NO_VERSION
from repro.obs import MetricsRegistry

pytestmark = [pytest.mark.fleet, pytest.mark.partition]


def _fleet(**overrides):
    defaults = dict(
        machines=5,
        replication_factor=3,
        seed=0xC0FE,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _rack(**overrides):
    obs = MetricsRegistry()
    rack = Rack(_fleet(**overrides), obs=obs)
    return rack, rack.client(), obs


# -- derived quorums ---------------------------------------------------------

@pytest.mark.parametrize(
    "rf, w, r", [(1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 3, 2), (5, 3, 3)]
)
def test_quorums_derive_from_replication_factor(rf, w, r):
    cfg = FleetConfig(machines=5, replication_factor=rf)
    assert (cfg.write_quorum, cfg.read_quorum) == (w, r)
    # A strict write majority, and every read intersects every write.
    assert 2 * cfg.write_quorum > rf
    assert cfg.write_quorum + cfg.read_quorum > rf


def test_quorums_are_not_settable():
    with pytest.raises(TypeError):
        FleetConfig(machines=5, replication_factor=3, write_quorum=2)


# -- the happy path ----------------------------------------------------------

def test_quorum_put_stamps_one_version_everywhere():
    rack, client, obs = _rack()
    key = b"q-key-0"

    def workload():
        yield from client.put(key, b"v0")
        got = yield from client.get(key)
        assert got == b"v0"

    rack.kernel.run_process(workload())
    targets = rack.ring.place(key)
    versions = {
        m: rack.machines[m].server.versions.get(key, NO_VERSION) for m in targets
    }
    # The primary coordinated: one (epoch, seq) stamp, identical on
    # every placement target (the replicate path carried it verbatim).
    assert len(set(versions.values())) == 1
    assert versions[targets[0]] > NO_VERSION
    assert all(rack.machines[m].store.get(key) == b"v0" for m in targets)
    assert client.stats["puts_acked"] == 1


def test_quorum_delete_tombstones():
    rack, client, obs = _rack()
    key = b"q-del"

    def workload():
        yield from client.put(key, b"v")
        yield from client.delete(key)
        got = yield from client.get(key)
        assert got is None

    rack.kernel.run_process(workload())
    targets = rack.ring.place(key)
    for m in targets:
        assert rack.machines[m].store.get(key) is None
        # The tombstone's version outlives the value (so a stale copy
        # can never resurrect the deleted key via repair).
        assert rack.machines[m].server.versions[key] > NO_VERSION
    assert key not in client.acked


# -- failover under quorum ---------------------------------------------------

def test_quorum_workload_survives_primary_kill():
    rack, client, obs = _rack()
    keys = [f"qf-{i}".encode() for i in range(12)]
    victim = rack.ring.primary(keys[0])

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, f"value-{i}".encode())
        rack.kill(victim)
        return (yield from read_acked(client, [client]))

    reads = rack.kernel.run_process(workload())
    assert victim not in rack.ring.machines
    require(durability([client], reads))


def test_membership_change_bumps_epoch_and_fences():
    rack, client, obs = _rack()
    epoch_before = rack.ring_epoch
    rack.kill("enzian1")
    assert rack.ring_epoch == epoch_before + 1
    for name, machine in rack.machines.items():
        if machine.alive:
            assert machine.server.epoch == rack.ring_epoch


# -- epoch guard -------------------------------------------------------------

def test_stale_client_write_is_rejected_then_retried():
    """A client behind the fence gets ``stale_epoch``, adopts the newer
    epoch from the rejection, and succeeds on retry."""
    rack, client, obs = _rack()
    key = b"q-fence"
    primary = rack.ring.primary(key)
    # A fence the client missed: the whole rack moved to epoch 3.
    rack.ring_epoch = 3
    rack._fence(rack.machines)

    def workload():
        yield from client.put(key, b"v")

    rack.kernel.run_process(workload())
    assert rack.machines[primary].server.stats["stale_epoch_rejects"] >= 1
    assert client.stats["rejections"] >= 1
    assert client.stats["quorum_rejects"] == 0
    assert client.epoch == 3
    assert client.acked[key] == b"v"


def test_stale_server_never_acks_newer_epoch_write():
    """The promotion guard: a server that missed a membership change
    (epoch behind the client's) must reject writes outright -- it can
    not acknowledge anything the current quorum would miss."""
    rack, client, obs = _rack(max_retries=0)
    key = b"q-stale-server"
    targets = rack.ring.place(key)
    client.epoch = 7  # the client has seen epoch 7; the servers have not

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.put(key, b"v")

    rack.kernel.run_process(workload())
    for m in targets:
        server = rack.machines[m].server
        assert server.versions.get(key, NO_VERSION) == NO_VERSION
        assert rack.machines[m].store.get(key) is None
    assert rack.machines[targets[0]].server.stats["stale_epoch_rejects"] >= 1


def test_stale_epoch_get_rejected_too():
    """Reads are fenced too: a request from a newer epoch than the
    server's is rejected whatever its op."""
    rack, client, obs = _rack(max_retries=0)
    key = b"q-stale-get"
    client.epoch = 7

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.get(key)

    rack.kernel.run_process(workload())


# -- read repair -------------------------------------------------------------

def test_read_repair_heals_a_stale_replica():
    rack, client, obs = _rack()
    key = b"q-repair"

    def write():
        yield from client.put(key, b"new")

    rack.kernel.run_process(write())
    targets = rack.ring.place(key)
    winning = rack.machines[targets[0]].server.versions[key]
    # Wind one replica back to a stale version (as if it missed the put).
    stale = targets[-1]
    rack.machines[stale].store.put(key, b"old")
    rack.machines[stale].server.versions[key] = (winning[0], winning[1] - 1)

    def read():
        got = yield from client.get(key)
        assert got == b"new"

    rack.kernel.run_process(read())
    # The repair was pushed and applied: the stale replica converged.
    assert client.stats["read_repairs"] >= 1
    assert rack.machines[stale].store.get(key) == b"new"
    assert rack.machines[stale].server.versions[key] == winning
    assert rack.machines[stale].server.stats["repairs_applied"] >= 1


def test_repair_never_regresses_a_newer_copy():
    rack, client, obs = _rack()
    key = b"q-no-regress"
    primary = rack.ring.place(key)[0]

    def write():
        yield from client.put(key, b"v1")

    rack.kernel.run_process(write())
    server = rack.machines[primary].server
    newer = (server.versions[key][0], server.versions[key][1] + 5)
    assert not server.apply_hint(key, b"stale", server.versions[key], False)
    assert server.apply_hint(key, b"newer", newer, False)
    assert rack.machines[primary].store.get(key) == b"newer"


# -- determinism -------------------------------------------------------------

def test_quorum_workload_is_bit_identical_across_runs():
    from repro.obs.export import snapshot_jsonl

    def run():
        rack, client, obs = _rack()

        def workload():
            for i in range(16):
                yield from client.put(f"qd-{i}".encode(), f"v{i}".encode())
            for i in range(16):
                yield from client.get(f"qd-{i}".encode())

        rack.kernel.run_process(workload())
        return rack.kernel.now, dict(client.stats), snapshot_jsonl(obs)

    assert run() == run()
