"""A rack of simulated Enzians behind one multi-port switch.

:class:`Rack` is the fleet's composition root: from one
:class:`repro.fleet.config.FleetConfig` it builds ``machines`` boards:
a star topology of per-board links into an output-queued
:class:`repro.net.Switch`, a per-board
:class:`repro.fleet.kvs.KvsShardServer` over a local
:class:`repro.apps.kvs.HashTableStore`, one
:class:`repro.health.HealthStateMachine` per board, and the
consistent-hash ring that places keys across them.

Failure handling rides the existing health ladder: :meth:`kill` moves
the victim's state machine to FAILED, and :meth:`sync_health` -- also
usable by external supervisors that fail a machine through its state
machine directly -- black-holes the dead board's NIC and rebuilds the
ring without it.  Because a key's first replica is, by ring
construction, the next machine clockwise from its primary, removal *is*
promotion: the surviving replica starts serving the shard with the data
it already holds.

Partitions and quorum epochs
----------------------------
:meth:`start_partition` splits the switch's ports into groups for a
time window (usually planted by a ``fleet.partition`` fault spec).  The
rack's *quorum epoch* (``ring_epoch``) is bumped on every membership
change and at each partition's start, and the current **controller
side** -- group 0, by convention the majority -- is fenced to the new
epoch; shard servers reject requests from epochs newer than their own,
so a stale minority server can never acknowledge a write the current
quorum would miss.  The *heal* is deliberately not a scheduled event
(a mid-partition rack must stay checkpoint-quiescent): the switch
evaluates the window lazily per frame, and :meth:`maybe_heal` -- called
at every client operation and control-plane entry point -- performs the
one-shot heal bookkeeping (re-fence everyone, drain hinted handoffs)
the first time it runs past the window's end.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..apps.kvs import HashTableStore
from ..health.state import HealthStateMachine
from ..net.ethernet import EthernetLink
from ..net.switch import star_topology
from ..sim import Kernel
from .config import (
    LINK_GBPS,
    LINK_PROPAGATION_NS,
    SWITCH_FORWARDING_NS,
    VNODES,
    FleetConfig,
)
from .errors import FleetError
from .kvs import NO_VERSION, FleetKvsClient, KvsShardServer
from .placement import HashRing


class RackError(FleetError):
    """A misused rack: an unknown machine, a live rejoin, or a partition
    started or healed out of turn."""


class RackMachine:
    """One board in the rack: port, shard, health."""

    def __init__(
        self,
        name: str,
        link: EthernetLink,
        store: HashTableStore,
        server: KvsShardServer,
        health: HealthStateMachine,
    ):
        self.name = name
        self.link = link
        self.store = store
        self.server = server
        self.health = health

    @property
    def alive(self) -> bool:
        return not self.health.wedged

    def __repr__(self) -> str:
        return f"RackMachine({self.name!r}, {self.health.state.value})"


class Rack:
    """N machines, one switch, a sharded KVS, and a failover path."""

    def __init__(
        self,
        fleet: Optional[FleetConfig] = None,
        kernel: Optional[Kernel] = None,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        if fleet is None:
            fleet = FleetConfig()
        self.fleet = fleet
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.kernel = kernel if kernel is not None else Kernel(seed=fleet.seed)
        if obs is not None:
            obs.use_clock(lambda: self.kernel.now, override=False)
        names = fleet.machine_names()
        self.switch, links = star_topology(
            self.kernel,
            names,
            rate_gbps=LINK_GBPS,
            propagation_ns=LINK_PROPAGATION_NS,
            forwarding_ns=SWITCH_FORWARDING_NS,
            egress_queueing=True,
            obs=obs,
        )
        self.machines: Dict[str, RackMachine] = {}
        for name in names:
            store = HashTableStore(n_slots=fleet.kvs_slots)
            server = KvsShardServer(self.kernel, name, links[name], store, obs=obs)
            health = HealthStateMachine(
                f"fleet.{name}", obs=obs, clock=lambda: self.kernel.now
            )
            self.machines[name] = RackMachine(
                name, links[name], store, server, health
            )
        self.ring = HashRing(names, VNODES, fleet.replication_factor)
        self.failovers: list[Tuple[float, str, str]] = []
        #: The rack's quorum epoch: bumped on every membership change
        #: and at each partition's start; servers are fenced to it.
        self.ring_epoch = 0
        #: The active partition descriptor (mirrors the switch's) or None.
        self.active_partition: Optional[dict] = None
        #: Partition lifecycle log: (t, event, detail).
        self.partitions: list[Tuple[float, str, str]] = []
        if self.obs:
            self.obs.gauge("fleet_machines_live").set(len(names))

    # -- clients -------------------------------------------------------------

    def client(self, address: str = "client0") -> FleetKvsClient:
        """Attach a KVS client on its own switch port."""
        link = EthernetLink(
            self.kernel,
            rate_gbps=LINK_GBPS,
            propagation_ns=LINK_PROPAGATION_NS,
            name=f"link-{address}",
        )
        self.switch.connect(link, address)
        return FleetKvsClient(self.kernel, self, link, address, obs=self.obs)

    # -- quorum epochs -------------------------------------------------------

    def _fence(self, names: Iterable[str]) -> None:
        """Push the current ring epoch into the named live servers."""
        for name in names:
            machine = self.machines.get(name)
            if machine is not None and machine.alive:
                machine.server.set_epoch(self.ring_epoch)

    def _controller_side(self) -> Tuple[str, ...]:
        """The machines the controller can reach: everyone, or -- during
        a partition -- group 0 plus any machine not named in a group."""
        if self.active_partition is None:
            return tuple(self.machines)
        grouped = {
            host: index
            for index, group in enumerate(self.active_partition["groups"])
            for host in group
        }
        return tuple(
            name for name in self.machines if grouped.get(name, 0) == 0
        )

    def _bump_epoch(self, reason: str) -> int:
        """Advance the quorum epoch and fence the controller side."""
        self.ring_epoch += 1
        self._fence(self._controller_side())
        if self.obs:
            self.obs.counter("fleet_epoch_bumps_total", {"reason": reason}).inc()
        return self.ring_epoch

    # -- partitions ----------------------------------------------------------

    def start_partition(
        self,
        groups: Sequence[Iterable[str]],
        oneway: bool = False,
        until_ns: Optional[float] = None,
    ) -> None:
        """Split the rack's network now, healing (lazily) at ``until_ns``.

        Group 0 is the controller/majority side: its servers are fenced
        to a freshly bumped quorum epoch, so anything the cut-off side
        later acknowledges under the old epoch is rejected by the
        majority after the heal.  Frame delivery is cut by the switch
        (cross-group drops at ingress); nothing is scheduled for the
        heal -- see :meth:`maybe_heal`.
        """
        if self.active_partition is not None:
            raise RackError("a partition is already active; heal it first")
        self.switch.set_partition(
            groups, oneway=oneway, start_ns=self.kernel.now, until_ns=until_ns
        )
        self.active_partition = self.switch.partition
        detail = self.describe_partition()
        self.partitions.append((self.kernel.now, "start", detail))
        self._bump_epoch("partition")
        if self.obs:
            self.obs.counter("fleet_partitions_total").inc()

    def describe_partition(self) -> str:
        if self.active_partition is None:
            return ""
        groups = self.active_partition["groups"]
        sep = ">" if self.active_partition["oneway"] else "|"
        return sep.join(",".join(g) for g in groups)

    def maybe_heal(self) -> bool:
        """Heal iff the active partition's window has expired.

        Cheap no-op on the common path (no partition active).  Called
        from every client operation and control-plane entry point, so
        the heal bookkeeping happens at the first touch past the
        window's end -- the switch already stopped dropping frames at
        exactly ``until_ns`` on its own.
        """
        if self.active_partition is None:
            return False
        until = self.active_partition["until_ns"]
        if until is None or self.kernel.now < until:
            return False
        self._heal_now()
        return True

    def heal(self) -> None:
        """Force-heal the active partition now (manual repair)."""
        if self.active_partition is None:
            raise RackError("no partition is active")
        self._heal_now()

    def _heal_now(self) -> None:
        self.switch.clear_partition()
        self.active_partition = None
        # Everyone is reachable again: fence the whole rack to the
        # controller's epoch so stale-side servers stop acknowledging
        # old-epoch traffic, then deliver the queued hinted handoffs.
        self._fence(self.machines)
        drained = self._drain_hints()
        self.partitions.append(
            (self.kernel.now, "heal", f"hints_drained={drained}")
        )
        if self.obs:
            self.obs.counter("fleet_partition_heals_total").inc()

    def _drain_hints(self) -> int:
        """Deliver queued hinted handoffs to their (now reachable) targets.

        A control-plane pass like :meth:`re_replicate`: each live
        server's queue is drained and applied newest-version-wins on the
        target.  Hints for targets that are still dead go back on the
        carrier's queue (a later heal or :meth:`rejoin` retries them).
        Returns the number of hints applied.
        """
        drained = 0
        for name in sorted(self.machines):
            server = self.machines[name].server
            if not server.alive or not server.hints:
                continue
            for target, entries in sorted(server.take_hints().items()):
                machine = self.machines.get(target)
                if machine is None or not machine.alive:
                    if machine is not None and target in self.ring.machines:
                        # Dead but not yet deposed: retry at the next
                        # heal or rejoin.
                        server.hints.setdefault(target, []).extend(entries)
                    # Deposed boards rebuild from live replicas at
                    # rejoin(); their queued hints are obsolete.
                    continue
                for key, value, version, tombstone in entries:
                    if machine.server.apply_hint(key, value, version, tombstone):
                        drained += 1
        if drained and self.obs:
            self.obs.counter("fleet_hints_drained_total").inc(drained)
        return drained

    # -- failure / failover --------------------------------------------------

    def kill(self, name: str, reason: str = "killed") -> bool:
        """Fail a board through its health state machine, then fail over.

        Returns False (no-op) when the board is already dead.
        """
        machine = self._machine(name)
        if not machine.alive:
            return False
        machine.health.fail(reason)
        self.sync_health()
        return True

    def sync_health(self) -> list[str]:
        """Fail over every board whose health machine sits in FAILED.

        The promotion path: the dead board's NIC is black-holed and the
        ring rebuilt without it -- each of its shards is now primaried
        by what used to be the shard's first replica.  Every membership
        change bumps the quorum epoch and fences the controller side,
        so a stale server that missed the change can never acknowledge
        a write the new quorum would miss.
        """
        self.maybe_heal()
        removed = []
        for name, machine in self.machines.items():
            if machine.alive or name not in self.ring.machines:
                continue
            machine.server.down()
            if len(self.ring.machines) > 1:
                self.ring = self.ring.removed(name)
                detail = "removed from ring"
            else:
                # The last board died.  The ring cannot be emptied, so
                # placement keeps naming the corpse; clients burn their
                # retries and surface FleetKvsError -- degraded, not
                # wedged.
                detail = "last machine down; ring unchanged"
            removed.append(name)
            self.failovers.append((self.kernel.now, name, detail))
            if self.obs:
                self.obs.counter("fleet_failovers_total", {"machine": name}).inc()
        if removed:
            self._bump_epoch("membership")
            if self.obs:
                self.obs.gauge("fleet_machines_live").set(len(self.live_machines()))
        return removed

    # -- durability repair / rejoin ------------------------------------------

    def re_replicate(self) -> int:
        """Copy under-replicated keys back up to full placement.

        After a failover the promoted survivor serves its shards with
        only its own copy -- a second failure would lose them.  This
        control-plane pass walks every live store (:meth:`HashTableStore
        .scan`), re-resolves each key against the current ring, and
        writes the key into any placement target that lacks it *or
        holds an older version* (newest-version-wins, so a stale
        rejoined replica can never clobber a quorum-committed write).
        It is an instantaneous repair (no simulated wire traffic): the
        modelled cost is the fleet's concern, the *invariant* -- every
        key held by ``min(rf, live)`` machines at its winning version --
        is this method's.

        Returns the number of copies created.
        """
        live = {name for name in self.live_machines() if name in self.ring.machines}
        copied = 0
        for name in sorted(live):
            source = self.machines[name]
            for key, value in source.store.scan():
                version = source.server.versions.get(bytes(key), NO_VERSION)
                for target in self.ring.place(key):
                    if target == name or target not in live:
                        continue
                    machine = self.machines[target]
                    if version > NO_VERSION:
                        if machine.server.apply_hint(key, value, version, False):
                            copied += 1
                    elif machine.store.get(key) is None:
                        machine.store.put(key, value)
                        copied += 1
        if copied and self.obs:
            self.obs.counter("fleet_rereplicated_keys_total").inc(copied)
        return copied

    def rejoin(self, name: str, reason: str = "rejoined") -> bool:
        """Bring a FAILED board back into the rack.

        The board walks the recovery ladder (FAILED -> RECOVERING ->
        HEALTHY), comes back with an *empty* store (a rebooted board
        has no DRAM contents), terminates frames again, and is added
        back to the ring -- after which :meth:`re_replicate` repopulates
        every shard the ring now places on it and any hinted handoffs
        queued for it are delivered.  The membership change bumps the
        quorum epoch (the rejoined board is fenced to it, so its stale
        pre-failure epoch can never acknowledge anything).

        Rejoining a board that is already live is an error: the caller
        is confused about rack state, and extending the ring with a
        live member's name would corrupt placement.  Unknown names
        raise the same :class:`RackError`.
        """
        machine = self._machine(name)
        if machine.alive:
            raise RackError(
                f"cannot rejoin {name!r}: the board is already live "
                f"({machine.health.state.value})"
            )
        if name in self.ring.machines:
            # Failed through the health machine but never synced: run
            # the failover bookkeeping first so the ring, epoch, and
            # NIC state are consistent before we bring the board back.
            self.sync_health()
        machine.health.recovering(reason)
        machine.store.clear()
        machine.server.versions.clear()
        machine.server.hints.clear()
        machine.server.up()
        machine.health.recover(reason)
        if name not in self.ring.machines:
            self.ring = self.ring.extended(name)
        self._bump_epoch("membership")
        self.failovers.append((self.kernel.now, name, "rejoined ring"))
        if self.obs:
            self.obs.counter("fleet_rejoins_total", {"machine": name}).inc()
            self.obs.gauge("fleet_machines_live").set(len(self.live_machines()))
        self.re_replicate()
        self._drain_hints()
        return True

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # The rack's own state is membership, the quorum epoch, and the
    # failover/partition logs; the machines, links, switch, and kernel
    # snapshot as components (walked by repro.snap.checkpoint).  The
    # ring is a pure function of its membership, so capturing the
    # member list is capturing the ring.  The active partition's window
    # travels both here and in the switch snapshot; restore trusts the
    # rack copy for control-plane state and the switch copy for the
    # data path (they are written at the same quiescent instant).

    SNAP_VERSION = 2

    def snapshot_state(self) -> dict:
        return {
            "ring_machines": list(self.ring.machines),
            "failovers": [list(entry) for entry in self.failovers],
            "ring_epoch": self.ring_epoch,
            "active_partition": (
                None
                if self.active_partition is None
                else {
                    "groups": [list(g) for g in self.active_partition["groups"]],
                    "oneway": self.active_partition["oneway"],
                    "start_ns": self.active_partition["start_ns"],
                    "until_ns": self.active_partition["until_ns"],
                }
            ),
            "partitions": [list(entry) for entry in self.partitions],
        }

    def restore_state(self, state: dict) -> None:
        self.ring = HashRing(
            state["ring_machines"], VNODES, self.fleet.replication_factor
        )
        self.failovers = [tuple(entry) for entry in state["failovers"]]
        self.ring_epoch = state["ring_epoch"]
        partition = state["active_partition"]
        if partition is None:
            self.active_partition = None
        else:
            self.active_partition = {
                "groups": tuple(tuple(g) for g in partition["groups"]),
                "oneway": partition["oneway"],
                "start_ns": partition["start_ns"],
                "until_ns": partition["until_ns"],
            }
        self.partitions = [tuple(entry) for entry in state["partitions"]]

    # -- introspection -------------------------------------------------------

    def _machine(self, name: str) -> RackMachine:
        machine = self.machines.get(name)
        if machine is None:
            raise RackError(
                f"unknown machine {name!r}; rack has {sorted(self.machines)}"
            )
        return machine

    def live_machines(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.machines.values() if m.alive)

    def health_states(self) -> Dict[str, str]:
        return {name: m.health.state.value for name, m in self.machines.items()}

    def report(self) -> Dict[str, object]:
        """One dict an example or soak harness can print/serialize."""
        return {
            "machines": len(self.machines),
            "live": list(self.live_machines()),
            "health": self.health_states(),
            "failovers": [
                {"t": t, "machine": m, "detail": d} for t, m, d in self.failovers
            ],
            "ring_epoch": self.ring_epoch,
            "partitions": [
                {"t": t, "event": e, "detail": d} for t, e, d in self.partitions
            ],
            "switch": dict(self.switch.stats),
            "served": {
                name: dict(m.server.stats) for name, m in self.machines.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"Rack({len(self.machines)} machines, "
            f"{len(self.ring.machines)} live, rf={self.fleet.replication_factor})"
        )
