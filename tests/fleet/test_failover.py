"""Failover integration: kill a primary mid-workload via the fault plan.

The scenario every assertion hangs off: an 8-put workload is in flight
when a :class:`repro.faults.FaultInjector` fires a ``fleet.machine``
kill against the machine that primaries the first key.  The rack's
health machine moves to FAILED, :meth:`Rack.sync_health` promotes the
first replica (removal *is* promotion on the ring), and -- because
with rf=2 the derived write quorum is both replicas -- no acknowledged
write is lost.  Running the whole scenario twice with the same seed
must be bit-identical down to the metrics snapshot.
"""

import pytest

from repro.config import FaultSpec, FaultsConfig, FleetConfig
from repro.faults import FaultInjector
from repro.fleet import FleetKvsError, Rack, durability, read_acked, require
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

pytestmark = pytest.mark.fleet

# Chosen so a replicated put targeting the victim is *in flight* when
# the kill fires: the attempt times out, placement re-resolves against
# the shrunk ring, and the retry lands on the promoted replica.
KILL_AT_NS = 14_000.0


def _fleet(**overrides):
    defaults = dict(machines=4, replication_factor=2, seed=0xD00F)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _run_scenario(fleet=None, kill=True):
    """Build rack + client, run the put/get workload with a mid-run kill.

    Returns (rack, client, injector, obs, reads) where ``reads`` maps
    key -> value read back *after* the failover settled.
    """
    fleet = fleet if fleet is not None else _fleet()
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    client = rack.client()
    keys = [f"key-{i}".encode() for i in range(8)]
    victim = rack.ring.primary(keys[0])

    injector = FaultInjector(
        FaultsConfig(
            events=(
                FaultSpec("fleet.machine", "kill", at=KILL_AT_NS, arg=victim),
            )
        ),
        obs=obs,
    )
    if kill:
        injector.arm_fleet(rack)

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, f"value-{i}".encode())
        # Read everything back after the dust settles; by now the kill
        # (if armed) has fired and the ring has failed over.
        return (yield from read_acked(client, [client]))

    reads = rack.kernel.run_process(workload(), name="workload")
    return rack, client, injector, obs, reads, victim


def test_kill_mid_workload_promotes_and_loses_no_acked_write():
    rack, client, injector, obs, reads, victim = _run_scenario()

    # The fault actually fired, through the health machine.
    assert injector.injected_kinds() == {"kill"}
    assert rack.health_states()[victim] == "failed"
    assert victim not in rack.ring.machines
    assert [m for _, m, _ in rack.failovers] == [victim]
    assert rack.kernel.now > KILL_AT_NS

    # Durability: every acknowledged write reads back its acked value
    # from the promoted replica set.
    assert client.acked, "workload acked nothing -- scenario is vacuous"
    require(durability([client], reads))

    # The workload exercised the failure path, not just the happy path:
    # at least one request timed out against the dead primary and was
    # retried against the promoted ring.
    assert client.stats["timeouts"] >= 1
    assert client.stats["retries"] >= 1
    assert rack.machines[victim].server.stats["dropped_dead"] >= 1


def test_promoted_primary_is_the_old_first_replica():
    rack, client, injector, obs, reads, victim = _run_scenario()
    before = rack.ring.extended(victim)  # reconstruct the pre-kill ring
    for key in client.acked:
        if before.primary(key) == victim:
            assert rack.ring.primary(key) == before.place(key)[1]


def test_failover_scenario_is_bit_identical_across_runs():
    r1 = _run_scenario()
    r2 = _run_scenario()
    # Same final time, same stats, same ledger, same metrics bytes.
    assert r1[0].kernel.now == r2[0].kernel.now
    assert r1[1].stats == r2[1].stats
    assert r1[1].acked == r2[1].acked
    assert r1[2].trace == r2[2].trace
    assert snapshot_jsonl(r1[3]) == snapshot_jsonl(r2[3])


def test_no_kill_control_run_never_times_out():
    rack, client, injector, obs, reads, victim = _run_scenario(kill=False)
    assert client.stats["timeouts"] == 0
    assert rack.failovers == []
    require(durability([client], reads))


def test_rf1_fleet_loses_unreplicated_data_but_stays_up():
    """The contrast case: rf=1 has no replica to promote, so the dead
    machine's keys read back as missing -- but requests still complete
    against the shrunk ring instead of hanging."""
    rack, client, injector, obs, reads, victim = _run_scenario(
        _fleet(replication_factor=1)
    )
    assert victim not in rack.ring.machines
    lost = [k for k, v in reads.items() if v is None]
    assert lost, "rf=1 kill should orphan at least the victim's keys"


def test_arm_fleet_rejects_unknown_machine():
    rack = Rack(_fleet())
    injector = FaultInjector(
        FaultsConfig(
            events=(FaultSpec("fleet.machine", "kill", at=1.0, arg="nope"),)
        )
    )
    with pytest.raises(ValueError, match="unknown machine"):
        injector.arm_fleet(rack)


def test_killing_every_machine_exhausts_retries():
    fleet = _fleet(machines=2, replication_factor=2, max_retries=1)
    rack = Rack(fleet)
    client = rack.client()
    rack.kill("enzian0")
    rack.kill("enzian1")

    def doomed():
        with pytest.raises(FleetKvsError):
            yield from client.put(b"k", b"v")

    rack.kernel.run_process(doomed(), name="doomed")


def test_down_aborts_in_flight_requests_with_typed_error():
    """A server that dies with requests *in service* fails them with a
    recorded KvsRequestAborted -- never a silent drop -- and the client
    still recovers through its timeout/failover path."""
    from repro.fleet import KvsRequestAborted

    fleet = _fleet(machines=2, replication_factor=1)
    rack = Rack(fleet)
    client = rack.client()
    key = b"abort-key"
    victim = rack.ring.primary(key)
    server = rack.machines[victim].server

    # Deterministic mid-service kill: poll until the request is being
    # serviced (between frame arrival and completion), then pull the plug.
    def reaper(_value=None):
        if server._in_service and server.alive:
            rack.kill(victim, reason="mid-service death")
            return
        if server.alive:
            rack.kernel.call_after(50.0, reaper)

    rack.kernel.call_after(0.0, reaper)

    def workload():
        yield from client.put(key, b"v")

    rack.kernel.run_process(workload())

    # The in-service request was aborted, typed, and counted.
    assert server.stats["aborted_in_flight"] >= 1
    assert server.aborted, "no typed abort recorded"
    abort = server.aborted[0]
    assert isinstance(abort, KvsRequestAborted)
    assert abort.machine == victim
    assert abort.op == "put"
    assert abort.reply_to == client.address
    assert abort.txid >= 1
    # The client never saw the abort -- only its timeout -- and the
    # retry landed on the surviving machine.
    assert client.stats["timeouts"] >= 1
    assert client.acked[key] == b"v"
    survivor = [m for m in rack.machines if m != victim][0]
    assert rack.machines[survivor].store.get(key) == b"v"
