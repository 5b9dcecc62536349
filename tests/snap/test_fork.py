"""Forking: restore + reseed branches a sweep from warm state.

A fork pins every piece of deterministic state at the branch point and
lets only the stochastic future vary: same seed -> bit-identical fork,
different seeds -> divergence, and a fault re-armed against a restored
rack must not fire twice.
"""

import pytest

from repro.config import FaultSpec, FaultsConfig, FleetConfig
from repro.faults import FaultInjector
from repro.fleet import Rack
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.snap import FleetSoak, checkpoint_rack, fork_rack
from repro.snap.protocol import restore, tagged

pytestmark = pytest.mark.snap

FLEET = FleetConfig(machines=4, replication_factor=2, seed=5150)


def _checkpointed_soak(epochs=3):
    obs = MetricsRegistry()
    rack = Rack(FLEET, obs=obs)
    clients = [rack.client("client0")]
    soak = FleetSoak(rack, clients, ops_per_epoch=10)
    soak.run(epochs)
    return checkpoint_rack(rack, clients=clients), tagged(soak)


def _run_fork(checkpoint, soak_tag, seed, epochs=3):
    rack, clients = fork_rack(checkpoint, seed=seed)
    soak = FleetSoak(rack, clients, ops_per_epoch=10)
    restore(soak, soak_tag)
    soak.run(epochs)
    return snapshot_jsonl(rack.obs), rack


def test_same_seed_forks_are_bit_identical():
    checkpoint, soak_tag = _checkpointed_soak()
    export_a, _ = _run_fork(checkpoint, soak_tag, seed=123)
    export_b, _ = _run_fork(checkpoint, soak_tag, seed=123)
    assert export_a == export_b


def test_different_seed_forks_diverge():
    checkpoint, soak_tag = _checkpointed_soak()
    exports = {
        seed: _run_fork(checkpoint, soak_tag, seed=seed)[0]
        for seed in (123, 456, 789)
    }
    assert len(set(exports.values())) == 3


def test_fork_starts_from_branch_point_state():
    checkpoint, soak_tag = _checkpointed_soak()
    rack, clients = fork_rack(checkpoint, seed=999)
    # Warm state: the sim clock and stores are where the checkpoint was.
    assert rack.kernel.now == checkpoint.meta["taken_at"]
    assert rack.kernel.seed == 999
    total_items = sum(m.store.items for m in rack.machines.values())
    assert total_items > 0, "fork should inherit warm store contents"


def test_rearm_after_restore_skips_already_fired_faults():
    obs = MetricsRegistry()
    rack = Rack(FLEET, obs=obs)
    clients = [rack.client("client0")]
    soak = FleetSoak(rack, clients, ops_per_epoch=10)
    victim = "enzian2"
    plan = FaultsConfig(
        events=(FaultSpec("fleet.machine", "kill", at=100.0, arg=victim),)
    )
    FaultInjector(plan, obs=obs).arm_fleet(rack)
    soak.run(2)
    assert rack.health_states()[victim] == "failed"

    checkpoint = checkpoint_rack(rack, clients=clients)
    restored, restored_clients = fork_rack(checkpoint, seed=31337)
    # Re-arming the same plan against the restored rack: the kill is in
    # the past, so it is skipped, not re-fired.
    injector = FaultInjector(plan, obs=restored.obs)
    injector.arm_fleet(restored)
    assert restored.kernel.pending_events == 0
    assert len(restored.failovers) == len(rack.failovers)
