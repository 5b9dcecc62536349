"""Background anti-entropy: Merkle-tree replica synchronization.

The quorum KVS converges through three channels today: hinted handoff
(drained at heals and rejoins), read repair (piggybacked on quorum
reads), and :meth:`repro.fleet.rack.Rack.re_replicate` (run at
rejoins).  All three ride *other* events -- a key that is never read
after a heal, on a rack where hinted handoff is disabled or a hint
carrier died, can stay divergent forever.  This module closes that
gap with the classic Dynamo-style background pass: every live replica
pair periodically compares hash trees over the key ranges they share
and exchanges only the keys under divergent leaves, applying repairs
newest-version-wins.

Design points:

* **Filtered per-pair trees.**  A machine holds many ranges; two
  healthy replicas would still differ on a whole-store hash.  Each
  pair ``(a, b)`` builds its trees over exactly the keys whose current
  placement includes *both* machines, so in-sync pairs compare equal
  at the root and cost one hash comparison per pass.
* **Epoch-fenced.**  A pass never runs across an active partition
  (syncing through a split would launder stale minority state), and it
  skips servers whose quorum epoch lags the ring's -- the pass sees
  one membership view, the current one.
* **Apply-iff-newer.**  Repairs go through
  :meth:`repro.fleet.kvs.KvsShardServer.apply_hint`: a versioned copy
  only lands where it is strictly newer, so a pass can never clobber a
  quorum-committed write, and tombstones propagate like any other
  versioned write.  Version-less keys (written into a store outside
  the KVS protocol) are only ever *filled in* where missing, mirroring
  :meth:`~repro.fleet.rack.Rack.re_replicate`.
* **One read per store per pass.**  A pass builds one view per live
  ring member from a single :meth:`HashTableStore.scan` and a single
  walk of ``server.versions``, placing each key once.  Each pair then
  takes the slice of its two views that covers the keys placed on
  both machines.  An applied repair sets the target's view entry to
  the repaired entry, so later pairs read what a fresh walk of the
  stores would give.  The views are released when the pass ends.
* **Control-plane, deterministic.**  Like ``re_replicate`` the pass is
  an instantaneous repair (no simulated wire traffic) driven by
  :meth:`Kernel.call_after`; it draws no randomness, so a started
  scheduler perturbs nothing but adds its own deterministic events.
  Building a scheduler is the decision to run passes: a rack that
  builds none runs none.

The scheduler is window-bounded (:meth:`AntiEntropyScheduler.start`
takes ``until_ns``): ticks re-arm only inside the window, so the
kernel's queue still drains and checkpoints stay quiescent.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from .config import AntiEntropyConfig
from .errors import FleetError
from .kvs import NO_VERSION
from .placement import key_hash

__all__ = [
    "AntiEntropyError",
    "AntiEntropyScheduler",
    "MerkleTree",
    "TREE_DEPTH",
    "replica_divergence",
]

#: Depth of every per-pair hash tree: ``2**TREE_DEPTH`` leaf buckets.
#: Deeper trees localize divergence with fewer key exchanges but cost
#: more hash comparisons per pass.
TREE_DEPTH = 4

#: One replica's view of a key: (version, value-digest, is-tombstone).
Entry = Tuple[Tuple[int, int], int, bool]


class AntiEntropyError(FleetError):
    """A scheduler armed while its background window is still ticking."""


def _entry_hash(key: bytes, entry: Entry) -> bytes:
    version, digest, tombstone = entry
    return b"%d.%d.%d.%d:%s" % (
        version[0], version[1], digest, int(tombstone), key,
    )


class MerkleTree:
    """A hash tree over one replica's view of a shared key range.

    ``2**depth`` leaf buckets partition the 32-bit key-hash space; a
    leaf's hash covers its keys' (version, value-digest, tombstone)
    triples in sorted key order, and internal nodes hash their two
    children.  Two trees over identical views are identical at every
    node; :meth:`diff` descends only where they disagree.
    """

    __slots__ = ("depth", "buckets", "levels")

    def __init__(self, depth: int, entries: Dict[bytes, Entry]):
        self.depth = depth
        n = 1 << depth
        shift = 32 - depth
        buckets: List[List[bytes]] = [[] for _ in range(n)]
        for key in sorted(entries):
            buckets[key_hash(key) >> shift].append(key)
        self.buckets = buckets
        leaves = []
        for bucket in buckets:
            acc = 0
            for key in bucket:
                acc = zlib.crc32(_entry_hash(key, entries[key]), acc)
            leaves.append(acc)
        #: levels[0] is the root; levels[depth] are the leaves.
        levels = [leaves]
        while len(levels[0]) > 1:
            below = levels[0]
            levels.insert(
                0,
                [
                    zlib.crc32(
                        b"%d,%d" % (below[i], below[i + 1])
                    )
                    for i in range(0, len(below), 2)
                ],
            )
        self.levels = levels

    @property
    def root(self) -> int:
        return self.levels[0][0]

    def diff(self, other: "MerkleTree") -> Tuple[List[int], int]:
        """Leaf buckets where the two trees disagree.

        Returns ``(divergent_leaf_indices, hash_comparisons)`` --
        the comparison count is what the pass's obs counters report
        (the simulated exchange cost of the protocol).
        """
        if other.depth != self.depth:
            raise ValueError(
                f"cannot diff trees of depth {self.depth} and {other.depth}"
            )
        comparisons = 0
        divergent: List[int] = []
        frontier = [(0, 0)]  # (level, index)
        last = len(self.levels) - 1
        while frontier:
            level, index = frontier.pop()
            comparisons += 1
            if self.levels[level][index] == other.levels[level][index]:
                continue
            if level == last:
                divergent.append(index)
            else:
                frontier.append((level + 1, 2 * index + 1))
                frontier.append((level + 1, 2 * index))
        return sorted(divergent), comparisons


def _replica_view(
    machine, ring, placed: Dict[bytes, Tuple[str, ...]]
) -> Dict[bytes, Entry]:
    """One machine's entry for every key, live or tombstoned, that its
    current placement includes.

    A live key is ``(version, crc32(value), False)`` and a tombstone
    ``(version, 0, True)``.  One store scan and one walk of the
    versions: a key is live iff the scan yields it.  ``placed`` caches
    ``ring.place`` across the pass's views, so each key is placed once.
    """
    name = machine.name
    versions = machine.server.versions
    entries: Dict[bytes, Entry] = {
        key: (versions.get(key, NO_VERSION), zlib.crc32(value), False)
        for key, value in machine.store.scan()
    }
    for key, version in versions.items():
        if key not in entries:
            entries[key] = (tuple(version), 0, True)
    view: Dict[bytes, Entry] = {}
    for key, entry in entries.items():
        place = placed.get(key)
        if place is None:
            place = placed[key] = ring.place(key)
        if name in place:
            view[key] = entry
    return view


class AntiEntropyScheduler:
    """Periodic background replica synchronization for one rack.

    Construct with the rack (config defaults to the rack's
    ``fleet.anti_entropy`` section) and either call :meth:`run_pass`
    directly or arm a background window with :meth:`start` -- ticks
    re-arm themselves every ``interval_ns`` until ``until_ns``, then
    retire, so the kernel still drains.
    """

    def __init__(
        self,
        rack,
        config: Optional[AntiEntropyConfig] = None,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        # ``rack=None`` builds a *detached* scheduler (config required):
        # checkpoint restore constructs one before the restored rack
        # exists, re-materializes its state, then re-points ``.rack``.
        if rack is None and config is None:
            raise ValueError("a detached scheduler needs an explicit config")
        self.rack = rack
        self.config = config if config is not None else rack.fleet.anti_entropy
        if obs is None:
            obs = rack.obs if rack is not None else None
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._until: Optional[float] = None
        #: True while a tick sits in the kernel queue.
        self._armed = False
        self.stats = {
            "passes": 0,
            "pairs_compared": 0,
            "ranges_diverged": 0,
            "repairs_applied": 0,
            "hash_comparisons": 0,
            "skipped_partition": 0,
            "skipped_stale_epoch": 0,
        }

    def attach(self, rack) -> None:
        """Point a detached (restore-path) scheduler at its rack,
        adopting the rack's registry when none was supplied."""
        from ..obs import NULL_REGISTRY

        self.rack = rack
        if self.obs is NULL_REGISTRY and rack.obs is not None:
            self.obs = rack.obs

    # -- background window ---------------------------------------------------

    def start(self, until_ns: float) -> None:
        """Arm background passes every ``interval_ns`` until ``until_ns``.

        Raises :class:`AntiEntropyError` while a tick of an earlier
        window is still pending: a second chain would double the passes.
        """
        if self._armed:
            raise AntiEntropyError(
                f"anti-entropy window until {self._until} ns is still "
                f"ticking; cannot arm another until {until_ns} ns"
            )
        kernel = self.rack.kernel
        if until_ns <= kernel.now:
            return
        self._until = until_ns
        kernel.call_after(self.config.interval_ns, self._tick)
        self._armed = True

    def _tick(self, _value=None) -> None:
        self._armed = False
        until = self._until
        kernel = self.rack.kernel
        if until is None or kernel.now > until:
            self._until = None
            return
        self.run_pass()
        if kernel.now + self.config.interval_ns <= until:
            kernel.call_after(self.config.interval_ns, self._tick)
            self._armed = True
        else:
            self._until = None

    # -- one pass ------------------------------------------------------------

    def run_pass(self) -> int:
        """Synchronize every live replica pair once; returns repairs.

        Skips entirely (counted) while a partition is active: syncing
        across a split would copy state the quorum epoch exists to
        fence off.  Otherwise reads each member's store once into a
        view (see :func:`_replica_view`) that lives for this pass only.
        """
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
        placed: Dict[bytes, Tuple[str, ...]] = {}
        # A member behind the ring's epoch is skipped by every pair, so
        # its store is never read.
        views = {
            name: _replica_view(rack.machines[name], rack.ring, placed)
            for name in members
            if rack.machines[name].server.epoch == epoch
        }
        repaired = 0
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                repaired += self._sync_pair(a, b, epoch, views, placed)
        self.stats["repairs_applied"] += repaired
        if repaired and self.obs:
            self.obs.counter("fleet_antientropy_repairs_total").inc(repaired)
        return repaired

    def _sync_pair(
        self,
        a: str,
        b: str,
        epoch: int,
        views: Dict[str, Dict[bytes, Entry]],
        placed: Dict[bytes, Tuple[str, ...]],
    ) -> int:
        rack = self.rack
        ma, mb = rack.machines[a], rack.machines[b]
        if ma.server.epoch != epoch or mb.server.epoch != epoch:
            # A server the fence has not reached holds a stale view;
            # syncing it now could resurrect fenced-off state.
            self.stats["skipped_stale_epoch"] += 1
            if self.obs:
                self.obs.counter(
                    "fleet_antientropy_skipped_total", {"reason": "stale_epoch"}
                ).inc()
            return 0
        # Every key in a's view is placed on a, and likewise for b.
        entries_a = {k: e for k, e in views[a].items() if b in placed[k]}
        entries_b = {k: e for k, e in views[b].items() if a in placed[k]}
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
                    continue  # a hash-bucket neighbor of the divergence
                va = ea[0] if ea is not None else NO_VERSION
                vb = eb[0] if eb is not None else NO_VERSION
                if va > vb:
                    repaired += self._repair(ma, mb, key, ea, views)
                elif vb > va:
                    repaired += self._repair(mb, ma, key, eb, views)
                else:
                    # Same version, different content: only version-
                    # less keys can get here, and they have no ground
                    # truth -- fill in missing copies, never
                    # overwrite (exactly re_replicate's rule).
                    if ea is not None and eb is None:
                        repaired += self._repair(ma, mb, key, ea, views)
                    elif eb is not None and ea is None:
                        repaired += self._repair(mb, ma, key, eb, views)
        return repaired

    def _repair(
        self,
        source,
        target,
        key: bytes,
        entry: Entry,
        views: Dict[str, Dict[bytes, Entry]],
    ) -> int:
        """Copy ``entry`` from ``source`` to ``target``; 1 iff applied.

        An applied repair leaves the target holding exactly ``entry``:
        ``apply_hint`` writes the version and the value or the
        tombstone, and the version-less fill writes the value under
        ``NO_VERSION``.  So the target's view takes ``entry`` too.
        """
        version, _digest, tombstone = entry
        value = b"" if tombstone else source.store.get(key)
        if value is None:
            return 0  # raced with nothing in a deterministic sim; defensive
        if version > NO_VERSION:
            applied = target.server.apply_hint(key, value, version, tombstone)
        elif target.store.get(key) is None:
            target.store.put(key, value)
            applied = True
        else:
            applied = False
        if not applied:
            return 0
        views[target.name][key] = entry
        if self.obs:
            self.obs.counter(
                "fleet_antientropy_repaired_keys_total",
                {"machine": target.name},
            ).inc()
        return 1

    # -- checkpoint/restore (repro.snap) -------------------------------------
    #
    # A scheduler's state is its counters and the active window; the
    # pending tick (if any) lives in the kernel queue, so a scheduler
    # is only snapshot-safe at quiescence -- exactly when no tick is
    # pending and ``_until`` is either None or already behind us.
    # Restore is silent: it never schedules; the harness re-arms with
    # start() if it wants the window back.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        return {
            "stats": dict(self.stats),
            "until": self._until,
        }

    def restore_state(self, state: dict) -> None:
        self.stats.update(state["stats"])
        self._until = state["until"]
        self._armed = False  # no tick was queued at the snapshot

    def __repr__(self) -> str:
        return (
            f"AntiEntropyScheduler(passes={self.stats['passes']}, "
            f"repairs={self.stats['repairs_applied']})"
        )


def replica_divergence(rack) -> int:
    """Count (key, live target) pairs that lag the key's winning copy.

    The ground-truth convergence measure the chaos harness asserts on:
    for every key any live ring member holds (or holds a tombstone
    for), resolve the winning ``(epoch, seq)`` version across the live
    holders, then count every live placement target whose copy differs
    from it.  Zero means every current placement target serves the
    winning version -- what a full anti-entropy pass guarantees.
    """
    live = {
        name
        for name in rack.live_machines()
        if name in rack.ring.machines
    }
    best: Dict[bytes, Tuple[Tuple[int, int], Optional[bytes]]] = {}
    for name in sorted(live):
        machine = rack.machines[name]
        for key, value in machine.store.scan():
            key = bytes(key)
            version = machine.server.versions.get(key, NO_VERSION)
            cur = best.get(key)
            if cur is None or version > cur[0]:
                best[key] = (version, value)
        for key, version in machine.server.versions.items():
            key = bytes(key)
            if machine.store.get(key) is not None:
                continue
            version = tuple(version)
            cur = best.get(key)
            if cur is None or version > cur[0]:
                best[key] = (version, None)  # tombstone
    divergent = 0
    for key, (version, value) in best.items():
        for target in rack.ring.place(key):
            if target not in live:
                continue
            machine = rack.machines[target]
            held = machine.store.get(key)
            if version > NO_VERSION:
                in_sync = (
                    machine.server.versions.get(key, NO_VERSION) == version
                    and held == value
                )
            else:
                in_sync = held == value
            if not in_sync:
                divergent += 1
    return divergent
