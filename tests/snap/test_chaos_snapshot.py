"""Chaos-path state survives checkpoint/restore.

The new fault-tolerance machinery carries state that must travel in
checkpoints for a mid-chaos pause/resume to stay bit-identical: the
anti-entropy scheduler's counters and window, the gateway's retry
tokens and shard breakers.  ``checkpoint_rack(extras=...)`` carries
any such Snapshottable alongside the rack; restore demands the same
names back so nothing silently resumes from default state."""

import pytest

from repro.config import FleetConfig
from repro.fleet import (
    AntiEntropyConfig,
    AntiEntropyScheduler,
    FleetKvsError,
    Rack,
    replica_divergence,
)
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.sim import Kernel
from repro.snap import checkpoint_rack, restore_rack
from repro.snap.protocol import SnapshotError, restore, tagged
from repro.traffic.classes import Request, RequestClass
from repro.traffic.config import GatewayConfig
from repro.traffic.gateway import AdmissionRejected, Gateway

pytestmark = [pytest.mark.snap, pytest.mark.fleet, pytest.mark.chaos]

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")


def _build():
    obs = MetricsRegistry()
    rack = Rack(
        FleetConfig(
            machines=6,
            replication_factor=3,
            hinted_handoff=False,
            seed=0xC4A0,
        ),
        obs=obs,
    )
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(interval_ns=500_000.0))
    return rack, rack.client(), scheduler


def _phase_diverge(rack, client, scheduler):
    """Write, split, overwrite, heal, run one repair pass -- ending at
    a quiescent point with repairs already on the scheduler's books."""

    def seed_writes():
        for i in range(40):
            yield from client.put(b"cs%04d" % i, b"v%04d-a" % i)

    rack.kernel.run_process(seed_writes())
    rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + 1_000_000.0)

    def overwrite():
        for i in range(40):
            try:
                yield from client.put(b"cs%04d" % i, b"v%04d-b" % i)
            except FleetKvsError:
                pass

    rack.kernel.run_process(overwrite())
    rack.kernel.call_at(rack.kernel.now + 1_200_000.0, lambda _=None: None)
    rack.kernel.run()
    rack.maybe_heal()
    assert rack.active_partition is None
    scheduler.run_pass()


def _phase_converge(rack, scheduler):
    """Keep running passes until divergence is gone; return stats."""
    scheduler.run_pass()
    assert replica_divergence(rack) == 0
    return dict(scheduler.stats)


def test_mid_chaos_checkpoint_with_scheduler_extra_is_bit_identical():
    # Straight-through reference.
    rack_a, client_a, sched_a = _build()
    _phase_diverge(rack_a, client_a, sched_a)
    stats_a = _phase_converge(rack_a, sched_a)
    straight = snapshot_jsonl(rack_a.obs)

    # Checkpoint after the first repair pass, mid-convergence.
    rack_b, client_b, sched_b = _build()
    _phase_diverge(rack_b, client_b, sched_b)
    checkpoint = checkpoint_rack(
        rack_b,
        clients=(client_b,),
        kind="chaos",
        extras={"anti_entropy": sched_b},
    )

    rack_c, (client_c,) = restore_rack(
        checkpoint,
        extras={
            "anti_entropy": (
                sched_c := AntiEntropyScheduler(
                    None, AntiEntropyConfig(interval_ns=500_000.0)
                )
            )
        },
    )
    # The restored scheduler is re-pointed at the restored rack (it was
    # constructed detached; only its state travelled).
    sched_c.attach(rack_c)
    assert dict(sched_c.stats) == dict(sched_b.stats)
    stats_c = _phase_converge(rack_c, sched_c)
    assert stats_c == stats_a
    assert snapshot_jsonl(rack_c.obs) == straight


def test_restore_rejects_missing_and_stray_extras():
    rack, client, scheduler = _build()
    rack.kernel.run_process(client.put(b"k", b"v"))
    checkpoint = checkpoint_rack(
        rack, clients=(client,), extras={"anti_entropy": scheduler}
    )
    with pytest.raises(SnapshotError, match="extras"):
        restore_rack(checkpoint)  # captured extra not supplied
    plain = checkpoint_rack(rack, clients=(client,))
    with pytest.raises(SnapshotError, match="extras"):
        restore_rack(plain, extras={"anti_entropy": scheduler})  # stray


# -- gateway round-trip ------------------------------------------------------


def _gateway_pair():
    """Two gateways on the same rack shape: one to mutate, one to
    restore onto."""

    def build():
        obs = MetricsRegistry()
        rack = Rack(
            FleetConfig(machines=4, replication_factor=2, seed=0xC4A1),
            obs=obs,
        )
        client = rack.client("gw0")
        gateway = Gateway(
            rack.kernel,
            GatewayConfig(
                retry_budget=0.5, breaker_enabled=True, breaker_failures=2
            ),
            [client],
            obs=obs,
        )
        return rack, gateway

    return build(), build()


def test_gateway_snapshot_round_trips_breakers_and_budget():
    (rack_a, gw_a), (_, gw_b) = _gateway_pair()
    # Mutate: counts (through the registry families and the gateway's
    # own), cache, retry tokens, a tripped breaker.
    gw_a._obs_offered.labels("kvs_get").inc(7)
    for _ in range(5):
        gw_a._obs_latency.labels("kvs_get", "steady").observe(2_000.0)
    gw_a._obs_retries.labels("kvs_get").inc(2)
    gw_a.admitted = 6
    gw_a.retry_tokens = 3.5
    gw_a.cache.fill(b"k1", b"v1")
    gw_a.cache.lookup(b"k1")
    victim = sorted(gw_a.breakers)[0]
    for _ in range(2):
        gw_a.breakers[victim].record_failure()
    state = tagged(gw_a)
    restore(gw_b, state)
    # The registry restores alongside, last, as restore_rack does.
    restore(gw_b.obs, tagged(gw_a.obs))
    assert gw_b.stats == gw_a.stats
    assert [gw_b.stats[k] for k in ("offered", "completed", "retries", "admitted")] == [
        7, 5, 2, 6
    ]
    assert gw_b.retry_tokens == 3.5
    assert gw_b.breakers[victim].state == gw_a.breakers[victim].state
    assert tagged(gw_b) == state  # before lookups perturb cache stats
    assert gw_b.cache.lookup(b"k1") == b"v1"


def test_gateway_snapshot_round_trips_the_rejection_log():
    (_, gw_a), (_, gw_b) = _gateway_pair()
    cls = RequestClass(
        kind="kvs_get", weight=1.0, slo_ns=1e5, service_ns=0.0, cacheable=True
    )
    reasons = ("throttled", "shed", "breaker")
    for reason in reasons:
        gw_a._reject(Request(cls, b"k", b"", "steady", 0.0), reason)
    state = tagged(gw_a)
    restore(gw_b, state)
    now = gw_a.kernel.now
    assert all(type(r) is AdmissionRejected for r in gw_b.rejections)
    assert [(r.reason, r.kind, r.at_ns) for r in gw_b.rejections] == [
        (reason, "kvs_get", now) for reason in reasons
    ]
    assert tagged(gw_b) == state


def test_gateway_snapshot_requires_an_empty_queue():
    (rack_a, gw_a), _ = _gateway_pair()
    cls = RequestClass(
        kind="kvs_get", weight=1.0, slo_ns=1e5, service_ns=0.0, cacheable=True
    )
    gw_a._queue.append(Request(cls, b"k", b"", "steady", 0.0))
    with pytest.raises(SnapshotError, match="queued"):
        gw_a.snapshot_state()


def test_gateway_restore_refuses_a_version_2_checkpoint():
    """Version 2 carried every count in the gateway's state; version 3
    carries only its own, and the registry brings back the rest."""
    (_, gw_a), (_, gw_b) = _gateway_pair()
    state = tagged(gw_a)
    assert sorted(state["state"]["stats"]) == sorted(Gateway.OWN_COUNTS)
    state["version"] = 2
    with pytest.raises(SnapshotError, match="version 2"):
        restore(gw_b, state)


def test_gateway_restore_rejects_an_unknown_stats_key():
    """A stats key the gateway does not define is an error, not a
    counter silently brought back to life."""
    (_, gw_a), (_, gw_b) = _gateway_pair()
    state = tagged(gw_a)
    state["state"]["stats"]["shed_deadline"] = 0
    with pytest.raises(SnapshotError, match="shed_deadline"):
        restore(gw_b, state)


def test_gateway_restore_rejects_unknown_breaker_shard():
    (rack_a, gw_a), _ = _gateway_pair()
    state = tagged(gw_a)
    kernel = Kernel(seed=1)
    bare = Gateway(kernel, GatewayConfig(), [])  # breakers disabled
    with pytest.raises(SnapshotError, match="unknown shard"):
        restore(bare, state)
