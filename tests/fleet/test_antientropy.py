"""Background anti-entropy: Merkle trees, passes, fencing, convergence.

The claim under test: with hinted handoff *disabled* and no reads
issued, a rack that diverged under a partition converges to zero
divergence through :class:`AntiEntropyScheduler` passes alone --
apply-iff-newer, epoch-fenced and deterministic.
"""

import math

import pytest

from repro.fleet import (
    AntiEntropyConfig,
    AntiEntropyError,
    AntiEntropyScheduler,
    FleetConfig,
    MerkleTree,
    Rack,
    replica_divergence,
)
from repro.fleet.kvs import NO_VERSION
from repro.obs import MetricsRegistry

pytestmark = [pytest.mark.fleet, pytest.mark.chaos]


def _fleet(**overrides):
    defaults = dict(
        machines=6,
        replication_factor=3,
        hinted_handoff=False,
        seed=0xAE0B,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _rack(**overrides):
    obs = MetricsRegistry()
    rack = Rack(_fleet(**overrides), obs=obs)
    return rack, rack.client(), obs


def _run(kernel, generator, name="work"):
    kernel.spawn(generator, name=name)
    kernel.run()


def _writes(client, n, suffix=b"a"):
    for i in range(n):
        yield from client.put(b"k%04d" % i, b"v%04d-" % i + suffix)


def _advance_past(rack, until_ns):
    rack.kernel.call_at(until_ns, lambda _value: None)
    rack.kernel.run()
    rack.maybe_heal()


def _split(rack, until_ns):
    rack.start_partition(
        [["enzian0", "enzian1", "enzian2", "enzian3"], ["enzian4", "enzian5"]],
        until_ns=until_ns,
    )


def _diverge(rack, client, n=50):
    """Write, split, overwrite, heal -- without hints the minority side
    is left stale.  Returns the post-heal divergence (must be > 0)."""
    _run(rack.kernel, _writes(client, n), "w1")

    def overwrite():
        for i in range(n):
            try:
                yield from client.put(b"k%04d" % i, b"v%04d-b" % i)
            except Exception:
                pass

    _split(rack, until_ns=rack.kernel.now + 2_000_000.0)
    _run(rack.kernel, overwrite(), "w2")
    _advance_past(rack, rack.kernel.now + 2_500_000.0)
    assert rack.active_partition is None
    divergence = replica_divergence(rack)
    assert divergence > 0, "partition without hints must leave divergence"
    return divergence


# -- config ------------------------------------------------------------------

def test_anti_entropy_config_validation():
    with pytest.raises(ValueError, match="interval_ns"):
        AntiEntropyConfig(interval_ns=0)
    with pytest.raises(ValueError, match="interval_ns"):
        AntiEntropyConfig(interval_ns=math.inf)
    with pytest.raises(ValueError, match="interval_ns"):
        AntiEntropyConfig(interval_ns=math.nan)
    with pytest.raises(ValueError, match="depth"):
        AntiEntropyConfig(depth=0)
    with pytest.raises(ValueError, match="depth"):
        AntiEntropyConfig(depth=17)


# -- Merkle trees ------------------------------------------------------------

def test_identical_trees_compare_in_one_root_check():
    entries = {
        b"k%03d" % i: ((1, i), i * 7, False) for i in range(40)
    }
    a = MerkleTree(4, dict(entries))
    b = MerkleTree(4, dict(entries))
    assert a.root == b.root
    divergent, comparisons = a.diff(b)
    assert divergent == []
    assert comparisons == 1


def test_single_divergent_key_is_localized():
    entries = {b"k%03d" % i: ((1, i), i * 7, False) for i in range(40)}
    changed = dict(entries)
    changed[b"k007"] = ((2, 99), 1234, False)
    a = MerkleTree(4, entries)
    b = MerkleTree(4, changed)
    divergent, comparisons = a.diff(b)
    assert len(divergent) == 1
    assert b"k007" in a.buckets[divergent[0]]
    # One root-to-leaf path plus the pruned siblings: 2*depth + 1.
    assert comparisons <= 2 * 4 + 1


def test_tombstones_hash_differently_from_absence():
    with_tomb = MerkleTree(2, {b"k": ((1, 1), 0, True)})
    without = MerkleTree(2, {})
    assert with_tomb.root != without.root


# -- passes ------------------------------------------------------------------

def test_pass_closes_post_heal_divergence_without_reads():
    rack, client, _obs = _rack()
    _diverge(rack, client)
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig())
    repaired = scheduler.run_pass()
    assert repaired > 0
    assert replica_divergence(rack) == 0
    assert scheduler.stats["repairs_applied"] == repaired
    assert scheduler.stats["ranges_diverged"] > 0
    # A second pass finds nothing: one root comparison per pair.
    assert scheduler.run_pass() == 0


def test_pass_is_skipped_while_partition_is_active():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 10), "w")
    _split(rack, until_ns=rack.kernel.now + 1_000_000.0)
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig())
    assert scheduler.run_pass() == 0
    assert scheduler.stats["skipped_partition"] == 1
    assert scheduler.stats["pairs_compared"] == 0
    _advance_past(rack, rack.kernel.now + 1_500_000.0)


def test_repairs_are_apply_iff_newer():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 20), "w")
    key = b"k0005"
    targets = rack.ring.place(key)
    winner = rack.machines[targets[0]]
    newest = winner.server.versions[key]
    # Plant a stale copy on another placement target.
    stale = rack.machines[targets[1]]
    stale.server.versions[key] = (newest[0], max(0, newest[1] - 1))
    stale.store.put(key, b"stale-value")
    assert replica_divergence(rack) > 0
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig())
    scheduler.run_pass()
    assert stale.server.versions[key] == newest
    assert stale.store.get(key) == winner.store.get(key)
    assert winner.server.versions[key] == newest  # never clobbered back
    assert replica_divergence(rack) == 0


def test_tombstones_propagate_to_stale_replicas():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 20), "w")
    key = b"k0008"

    def deleter():
        yield from client.delete(key)

    targets = rack.ring.place(key)
    # Make one target miss the delete entirely, as a partition would.
    victim = rack.machines[targets[-1]]
    before_version = dict(victim.server.versions)
    before_value = victim.store.get(key)
    _run(rack.kernel, deleter(), "del")
    victim.server.versions.update({key: before_version.get(key, NO_VERSION)})
    if before_value is not None:
        victim.store.put(key, before_value)
    assert replica_divergence(rack) > 0
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig())
    assert scheduler.run_pass() > 0
    assert victim.store.get(key) is None
    assert replica_divergence(rack) == 0


# -- the background window ---------------------------------------------------

def test_window_runs_passes_and_drains():
    rack, client, obs = _rack(anti_entropy=AntiEntropyConfig(interval_ns=500_000.0))
    _diverge(rack, client)
    scheduler = AntiEntropyScheduler(rack, obs=obs)
    scheduler.start(rack.kernel.now + 2_000_000.0)
    rack.kernel.run()  # drains: ticks retire at the window's end
    assert rack.kernel.pending_events == 0
    assert scheduler.stats["passes"] >= 2
    assert replica_divergence(rack) == 0
    assert scheduler._until is None


def test_second_start_while_ticking_raises():
    rack, _client, _obs = _rack(anti_entropy=AntiEntropyConfig(interval_ns=1e5))
    scheduler = AntiEntropyScheduler(rack)
    scheduler.start(1e6)
    with pytest.raises(AntiEntropyError, match=r"until 1000000\.0 ns .* until 2000000\.0 ns"):
        scheduler.start(2e6)
    rack.kernel.run()
    assert scheduler.stats["passes"] == 10  # one chain, not two
    scheduler.start(rack.kernel.now + 3e5)  # the window retired: re-arm
    rack.kernel.run()
    assert scheduler.stats["passes"] == 13


def test_restored_scheduler_rearms_with_start():
    rack, _client, _obs = _rack(anti_entropy=AntiEntropyConfig(interval_ns=1e5))
    scheduler = AntiEntropyScheduler(rack)
    scheduler.run_pass()
    state = scheduler.snapshot_state()
    state["until"] = rack.kernel.now + 1e6  # restored mid-window, no tick queued
    clone = AntiEntropyScheduler(rack)
    clone.restore_state(state)
    assert rack.kernel.pending_events == 0
    clone.start(rack.kernel.now + 5e5)
    rack.kernel.run()
    assert clone.stats["passes"] == 1 + 5


# -- divergence measure ------------------------------------------------------

def test_replica_divergence_counts_missing_and_stale():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 12), "w")
    assert replica_divergence(rack) == 0
    key = b"k0002"
    target = rack.machines[rack.ring.place(key)[1]]
    version = target.server.versions.pop(key)
    target.store.delete(key)
    assert replica_divergence(rack) == 1
    target.server.versions[key] = (version[0], version[1] - 1)
    target.store.put(key, b"old")
    assert replica_divergence(rack) == 1


# -- checkpoint/restore ------------------------------------------------------

def test_scheduler_snapshot_round_trip():
    rack, client, _obs = _rack()
    _diverge(rack, client)
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig())
    scheduler.run_pass()
    from repro.snap import restore, tagged

    state = tagged(scheduler)
    clone = AntiEntropyScheduler(rack, AntiEntropyConfig())
    restore(clone, state)
    assert clone.stats == scheduler.stats
    assert clone._until is None
