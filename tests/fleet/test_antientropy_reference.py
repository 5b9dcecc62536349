"""Anti-entropy passes against the per-pair store walks they replaced.

:class:`AntiEntropyScheduler` reads each live store once per pass into a
view and updates the target's view after every applied repair.
:class:`ReferenceScheduler` keeps the previous pass, where every pair
walks both whole stores again (:func:`_shared_entries`) and so sees the
repairs of earlier pairs directly.  Driven over the same random rack
states, both must leave the same arena bytes, ``items`` and versions on
every machine, the same scheduler stats and the same obs snapshot, after
every pass.

The states cover dropped copies, stale versions, tombstones, conflicting
version-less values, copies left on machines the key is not placed on,
a dead board, a server whose epoch lags the ring, and chains where one
pair's repair feeds a later pair.
"""

import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fleet import AntiEntropyScheduler, FleetConfig, Rack
from repro.fleet.antientropy import TREE_DEPTH, MerkleTree
from repro.fleet.kvs import NO_VERSION
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

pytestmark = pytest.mark.fleet

NAMES = [f"enzian{i}" for i in range(6)]
KEYS = [b"h%02d" % i for i in range(20)]
RAW_KEYS = [b"raw%d" % i for i in range(4)]


def _shared_entries(rack, name, partner):
    """One machine's view of the key range it shares with ``partner``:
    every key (live or tombstoned) whose current placement includes
    both machines."""
    machine = rack.machines[name]
    ring = rack.ring
    server = machine.server
    out = {}
    for key, value in machine.store.scan():
        key = bytes(key)
        place = ring.place(key)
        if name in place and partner in place:
            version = server.versions.get(key, NO_VERSION)
            out[key] = (version, zlib.crc32(value), False)
    for key, version in server.versions.items():
        key = bytes(key)
        if key in out or machine.store.get(key) is not None:
            continue  # live keys were covered by the scan above
        place = ring.place(key)
        if name in place and partner in place:
            out[key] = (tuple(version), 0, True)
    return out


class ReferenceScheduler(AntiEntropyScheduler):
    """The pass before per-pass views: both stores re-walked per pair."""

    def run_pass(self):
        rack = self.rack
        rack.maybe_heal()
        self.stats["passes"] += 1
        if self.obs:
            self.obs.counter("fleet_antientropy_passes_total").inc()
        if rack.active_partition is not None:
            self.stats["skipped_partition"] += 1
            if self.obs:
                self.obs.counter(
                    "fleet_antientropy_skipped_total", {"reason": "partition"}
                ).inc()
            return 0
        members = sorted(
            name
            for name in rack.ring.machines
            if name in rack.machines and rack.machines[name].alive
        )
        epoch = rack.ring_epoch
        repaired = 0
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                repaired += self._sync_pair(a, b, epoch)
        self.stats["repairs_applied"] += repaired
        if repaired and self.obs:
            self.obs.counter("fleet_antientropy_repairs_total").inc(repaired)
        return repaired

    def _sync_pair(self, a, b, epoch):
        rack = self.rack
        ma, mb = rack.machines[a], rack.machines[b]
        if ma.server.epoch != epoch or mb.server.epoch != epoch:
            self.stats["skipped_stale_epoch"] += 1
            if self.obs:
                self.obs.counter(
                    "fleet_antientropy_skipped_total", {"reason": "stale_epoch"}
                ).inc()
            return 0
        entries_a = _shared_entries(rack, a, b)
        entries_b = _shared_entries(rack, b, a)
        tree_a = MerkleTree(TREE_DEPTH, entries_a)
        tree_b = MerkleTree(TREE_DEPTH, entries_b)
        divergent, comparisons = tree_a.diff(tree_b)
        self.stats["pairs_compared"] += 1
        self.stats["hash_comparisons"] += comparisons
        if not divergent:
            return 0
        self.stats["ranges_diverged"] += len(divergent)
        if self.obs:
            self.obs.counter("fleet_antientropy_ranges_diverged_total").inc(
                len(divergent)
            )
        repaired = 0
        for leaf in divergent:
            keys = sorted(set(tree_a.buckets[leaf]) | set(tree_b.buckets[leaf]))
            for key in keys:
                ea = entries_a.get(key)
                eb = entries_b.get(key)
                if ea == eb:
                    continue
                va = ea[0] if ea is not None else NO_VERSION
                vb = eb[0] if eb is not None else NO_VERSION
                if va > vb:
                    repaired += self._repair(ma, mb, key, ea)
                elif vb > va:
                    repaired += self._repair(mb, ma, key, eb)
                else:
                    if ea is not None and eb is None:
                        repaired += self._repair(ma, mb, key, ea)
                    elif eb is not None and ea is None:
                        repaired += self._repair(mb, ma, key, eb)
        return repaired

    def _repair(self, source, target, key, entry):
        version, _digest, tombstone = entry
        value = b"" if tombstone else source.store.get(key)
        if value is None:
            return 0
        if version > NO_VERSION:
            applied = target.server.apply_hint(key, value, version, tombstone)
        elif target.store.get(key) is None:
            target.store.put(key, value)
            applied = True
        else:
            applied = False
        if applied and self.obs:
            self.obs.counter(
                "fleet_antientropy_repaired_keys_total",
                {"machine": target.name},
            ).inc()
        return 1 if applied else 0


# -- random rack states --------------------------------------------------------

#: What one placement target holds of a key whose newest write has
#: sequence ``seq``: that write, an older one, nothing, or a tombstone
#: at either version.
COPIES = ["current", "current", "stale", "dropped", "tombstone", "old_tombstone"]

KEY_PLANS = st.lists(
    st.tuples(
        st.integers(2, 4),  # newest seq
        st.lists(st.sampled_from(COPIES), min_size=3, max_size=3),
        st.none() | st.sampled_from(NAMES),  # a stray copy, anywhere
    ),
    min_size=len(KEYS),
    max_size=len(KEYS),
)
RAW_PLANS = st.lists(
    st.lists(st.sampled_from(NAMES), max_size=3, unique=True),
    min_size=len(RAW_KEYS),
    max_size=len(RAW_KEYS),
)


def _write(machine, key, copy, seq):
    server, store = machine.server, machine.store
    if copy == "current":
        server.versions[key] = (1, seq)
        store.put(key, b"v%d-%s" % (seq, key))
    elif copy == "stale":
        server.versions[key] = (1, seq - 1)
        store.put(key, b"v%d-%s" % (seq - 1, key))
    elif copy == "tombstone":
        server.versions[key] = (1, seq)
        store.delete(key)
    elif copy == "old_tombstone":
        server.versions[key] = (1, seq - 1)
        store.delete(key)


def _build(scheduler_cls, key_plans, raw_plans, lag):
    obs = MetricsRegistry()
    fleet = FleetConfig(
        machines=6,
        replication_factor=3,
        hinted_handoff=False,
        kvs_slots=64,
    )
    rack = Rack(fleet, obs=obs)
    for key, (seq, copies, stray) in zip(KEYS, key_plans):
        for name, copy in zip(rack.ring.place(key), copies):
            _write(rack.machines[name], key, copy, seq)
        if stray is not None:
            _write(rack.machines[stray], key, "stale", seq)
    for index, (key, holders) in enumerate(zip(RAW_KEYS, raw_plans)):
        for rank, name in enumerate(holders):
            # Version-less copies: raw0 and raw2 agree everywhere, the
            # copies of raw1 and raw3 all conflict.
            value = b"raw%d-%d" % (index, rank if index % 2 else 0)
            rack.machines[name].store.put(key, value)
    if lag is not None:
        # The ring moved on without this server: its pairs are skipped.
        rack.ring_epoch += 1
        for name in NAMES:
            if name != lag:
                rack.machines[name].server.set_epoch(rack.ring_epoch)
    return rack, scheduler_cls(rack), obs


def _state(rack, scheduler, obs):
    machines = {
        name: (
            bytes(machine.store.arena),
            machine.store.items,
            dict(machine.server.versions),
        )
        for name, machine in rack.machines.items()
    }
    return machines, dict(scheduler.stats), snapshot_jsonl(obs)


@settings(max_examples=40, deadline=None)
@given(
    key_plans=KEY_PLANS,
    raw_plans=RAW_PLANS,
    lag=st.none() | st.sampled_from(NAMES),
    kill=st.none() | st.sampled_from(NAMES),
)
@example(
    # Chains: a stale primary, the newest write on the first replica and
    # no copy on the second.  Wherever the pair order reaches the stale
    # machine's pair with the empty one after its own repair, that pair
    # must see the repaired entry.
    key_plans=[(3, ["stale", "current", "dropped"], None)] * len(KEYS),
    raw_plans=[["enzian0"], [], ["enzian1", "enzian2"], NAMES[:3]],
    lag=None,
    kill=None,
)
def test_pass_matches_the_per_pair_walks(key_plans, raw_plans, lag, kill):
    racks = [
        _build(cls, key_plans, raw_plans, lag)
        for cls in (AntiEntropyScheduler, ReferenceScheduler)
    ]
    for step in range(3):
        if step == 1 and kill is not None:
            for rack, _, _ in racks:
                rack.kill(kill)
        got, want = (
            (scheduler.run_pass(),) + _state(rack, scheduler, obs)
            for rack, scheduler, obs in racks
        )
        assert got == want, f"pass {step}"
