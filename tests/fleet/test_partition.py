"""Partition tolerance end-to-end: split, fence, hint, heal, audit.

The scenario family: a 6-board quorum rack (rf=3, w=2, r=2) splits
4-vs-2 mid-workload.  The majority side keeps serving every key it can
reach a write quorum for (queueing hinted handoffs for cut-off
replicas), the minority side of the keyspace goes *unavailable rather
than stale*, the controller fences quorum epochs so a cut-off server
can never acknowledge a write the majority would miss, and at the heal
the hints drain and the recorded history checks out linearizable.
"""

import pytest

from repro.config import FaultSpec, FaultsConfig, FleetConfig
from repro.faults import FaultInjector
from repro.fleet import FleetKvsError, HistoryRecorder, Rack, RackError, check_history
from repro.fleet.oracles import durability, linearizability, read_acked, require
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.sim import Timeout

pytestmark = [pytest.mark.fleet, pytest.mark.partition]

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")
GROUP_ARG = ",".join(MAJ) + "|" + ",".join(MIN)


def _fleet(**overrides):
    defaults = dict(
        machines=6,
        replication_factor=3,
        seed=0x9A127,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _rack(**overrides):
    obs = MetricsRegistry()
    rack = Rack(_fleet(**overrides), obs=obs)
    return rack, rack.client(), obs


def _find_key(rack, predicate, prefix="pk"):
    """Deterministically find a key whose placement satisfies ``predicate``."""
    for i in range(20_000):
        key = f"{prefix}-{i}".encode()
        if predicate(rack.ring.place(key)):
            return key
    raise AssertionError(f"no key with the wanted placement under {prefix!r}")


def _majority_key(rack, prefix="maj"):
    """All three placement targets on the majority side."""
    return _find_key(rack, lambda p: all(m in MAJ for m in p), prefix)


def _hintable_key(rack, prefix="hint"):
    """Majority primary, exactly one cut-off replica: the write commits
    at w=2 on the majority side and queues one hinted handoff."""
    return _find_key(
        rack,
        lambda p: p[0] in MAJ and sum(m in MIN for m in p) == 1,
        prefix,
    )


def _minority_key(rack, prefix="mino"):
    """Two of three targets cut off: neither write nor read quorum is
    reachable from the majority side."""
    return _find_key(rack, lambda p: sum(m in MIN for m in p) == 2, prefix)


# -- lifecycle ---------------------------------------------------------------

def test_start_partition_twice_raises():
    rack, client, obs = _rack()
    rack.start_partition([MAJ, MIN], until_ns=1_000_000.0)
    with pytest.raises(RackError, match="already active"):
        rack.start_partition([MAJ, MIN])
    rack.heal()
    with pytest.raises(RackError, match="no partition"):
        rack.heal()


def test_partition_bumps_epoch_and_fences_controller_side_only():
    rack, client, obs = _rack()
    assert rack.ring_epoch == 0
    rack.start_partition([MAJ, MIN], until_ns=1_000_000.0)
    assert rack.ring_epoch == 1
    for name in MAJ:
        assert rack.machines[name].server.epoch == 1
    for name in MIN:
        assert rack.machines[name].server.epoch == 0, "cut-off side must not fence"
    # The heal re-fences everyone.
    rack.heal()
    for name in MAJ + MIN:
        assert rack.machines[name].server.epoch == 1
    events = [e for _, e, _ in rack.partitions]
    assert events == ["start", "heal"]


# -- availability under the split -------------------------------------------

def test_majority_keys_stay_available_minority_keys_fail_fast():
    rack, client, obs = _rack(max_retries=1)
    maj_key = _majority_key(rack)
    min_key = _minority_key(rack)
    window = 2_000_000.0

    def workload():
        yield from client.put(maj_key, b"before")
        rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + window)
        # Majority-side key: full service through the partition.
        yield from client.put(maj_key, b"during")
        got = yield from client.get(maj_key)
        assert got == b"during"
        # Minority-side key: *unavailable rather than stale*.
        with pytest.raises(FleetKvsError):
            yield from client.put(min_key, b"lost-cause")
        with pytest.raises(FleetKvsError):
            yield from client.get(min_key)
        # Past the window the same key serves again.
        yield Timeout(window + 10_000.0)
        yield from client.put(min_key, b"after-heal")
        got = yield from client.get(min_key)
        assert got == b"after-heal"

    rack.kernel.run_process(workload())
    assert rack.switch.stats["dropped_partitioned"] > 0
    assert rack.active_partition is None  # maybe_heal fired
    assert client.acked[min_key] == b"after-heal"


def test_hinted_handoff_queues_and_drains_on_heal():
    rack, client, obs = _rack()
    key = _hintable_key(rack)
    cut_off = [m for m in rack.ring.place(key) if m in MIN][0]
    window = 1_000_000.0

    def workload():
        rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + window)
        yield from client.put(key, b"during-split")
        yield Timeout(window + 10_000.0)
        got = yield from client.get(key)  # first touch past the window: heals
        assert got == b"during-split"

    rack.kernel.run_process(workload())
    # The write committed at w=2 without the cut-off replica, a hint
    # was queued on an acked carrier, and the heal delivered it.
    assert client.stats["hints_sent"] >= 1
    assert rack.machines[cut_off].store.get(key) == b"during-split"
    heal_events = [d for _, e, d in rack.partitions if e == "heal"]
    assert heal_events and "hints_drained=" in heal_events[0]
    assert not any(m.server.hints for m in rack.machines.values())


def test_oneway_partition_blocks_only_forward_traffic():
    """Requests (group 0 -> 1) die, responses (1 -> 0) would pass: the
    client still times out, because the request never arrives."""
    rack, client, obs = _rack(max_retries=0)
    min_primary_key = _minority_key(rack)
    rack.start_partition(
        [MAJ + ("client0",), MIN], oneway=True, until_ns=5_000_000.0
    )

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.get(min_primary_key)

    rack.kernel.run_process(workload())
    assert rack.switch.stats["dropped_partitioned"] > 0


# -- guarded promotion -------------------------------------------------------

def test_minority_kill_mid_partition_promotes_with_epoch_guard():
    rack, client, obs = _rack()
    victim, survivor = MIN
    window = 2_000_000.0

    def workload():
        for i in range(10):
            yield from client.put(f"gp-{i}".encode(), f"v{i}".encode())
        rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + window)
        # The controller side declares the cut-off board dead.
        rack.kill(victim, reason="partitioned away")
        # Epochs: membership bump fenced the majority; the surviving
        # minority board is behind the fence and cannot ack anything
        # the new quorum would miss.
        assert rack.machines[survivor].server.epoch < rack.ring_epoch
        yield Timeout(window + 10_000.0)
        return (yield from read_acked(client, [client]))

    reads = rack.kernel.run_process(workload())
    assert victim not in rack.ring.machines
    assert rack.ring_epoch == 2  # partition bump + membership bump
    assert rack.machines[survivor].server.epoch == rack.ring_epoch
    require(durability([client], reads))


# -- the fault plan path -----------------------------------------------------

def _partition_plan(at, duration, arg=GROUP_ARG, kind="split"):
    return FaultsConfig(
        events=(
            FaultSpec("fleet.partition", kind, at=at, duration=duration, arg=arg),
        )
    )


def test_partition_via_fault_plan_with_audit():
    """The full loop: plan -> injector -> split -> workload -> heal ->
    no acked write lost, history linearizable."""
    rack, client, obs = _rack()
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    client.history = recorder
    injector = FaultInjector(_partition_plan(at=50_000.0, duration=400_000.0), obs=obs)
    injector.arm_fleet(rack)

    def workload():
        for i in range(24):
            key = f"fp-{i % 8}".encode()
            try:
                yield from client.put(key, f"v{i}".encode())
            except FleetKvsError:
                pass  # minority-side keys are unavailable mid-split
            yield Timeout(25_000.0)
        yield Timeout(200_000.0)
        return (yield from read_acked(client, [client]))

    reads = rack.kernel.run_process(workload())
    assert ("fleet.partition", "split") in {
        (site, kind) for _, site, kind, _ in injector.trace
    }
    assert rack.active_partition is None
    assert rack.switch.stats["dropped_partitioned"] > 0
    require(durability([client], reads) + linearizability(recorder, check_history(recorder)))


def test_arm_partition_rejects_unknown_hosts():
    rack, client, obs = _rack()
    injector = FaultInjector(
        _partition_plan(at=1.0, duration=10.0, arg="enzian0|enzian99")
    )
    with pytest.raises(ValueError, match="unknown hosts"):
        injector.arm_fleet(rack)


def test_partition_spec_in_the_past_is_skipped_on_rearm():
    """Re-arming against a restored rack must not re-fire a partition
    whose window already started (its state travelled in the snapshot)."""
    rack, client, obs = _rack()
    rack.kernel.call_at(100_000.0, lambda _: None)
    rack.kernel.run()
    assert rack.kernel.now == 100_000.0
    injector = FaultInjector(_partition_plan(at=50_000.0, duration=10_000.0))
    injector.arm_fleet(rack)
    assert rack.kernel.pending_events == 0  # nothing scheduled
    assert rack.active_partition is None


# -- determinism -------------------------------------------------------------

def test_partition_scenario_is_bit_identical_across_runs():
    def run():
        rack, client, obs = _rack()
        injector = FaultInjector(
            _partition_plan(at=50_000.0, duration=300_000.0), obs=obs
        )
        injector.arm_fleet(rack)

        def workload():
            for i in range(16):
                try:
                    yield from client.put(f"det-{i % 5}".encode(), f"v{i}".encode())
                except FleetKvsError:
                    pass
                yield Timeout(30_000.0)
            yield from client.get(b"det-0")

        rack.kernel.run_process(workload())
        return (
            rack.kernel.now,
            dict(client.stats),
            dict(rack.switch.stats),
            tuple(injector.trace),
            tuple(rack.partitions),
            snapshot_jsonl(obs),
        )

    assert run() == run()
