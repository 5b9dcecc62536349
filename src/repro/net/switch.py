"""A store-and-forward Ethernet switch.

The §5.2 TCP experiment connects two Enzians "through their FPGA-side
100 Gb/s Ethernet links via a conventional network switch"; this model
provides that topology element: per-port links, a static MAC table,
and store-and-forward latency.

For the rack-scale fleet the same switch grows two generalizations,
both opt-in so the historical two-host timing stays bit-identical:

* any number of ports (:func:`star_topology` wires N hosts);
* shared output-port queueing (``egress_queueing=True``): frames bound
  for the same egress port serialize behind each other regardless of
  which ingress port they came from, so congestion on one host's
  downlink back-pressures every flow targeting it.

Partitions
----------
:meth:`Switch.set_partition` models the failure mode racks actually
hit: the network splits while every host keeps running.  Ports are
assigned to named groups and cross-group frames are *dropped at
ingress* for the window ``[start_ns, until_ns)`` -- before any egress
bookkeeping, so intra-group timing is exactly what it would have been
without the partition, and delivery resumes at ``until_ns`` without any
scheduled event (the window is evaluated lazily against the kernel
clock on every frame; a mid-partition switch is therefore quiescent and
checkpointable).  ``oneway=True`` drops only frames travelling from the
first group to the second (a one-way link failure); the reverse
direction keeps delivering.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..sim import Kernel
from .ethernet import EthernetLink, Frame


class SwitchPortError(ValueError):
    """A port registration that would clobber an existing host."""


class Switch:
    """An output-queued, store-and-forward switch.

    Each port is an :class:`EthernetLink` with one host attached under
    its own address; the switch rides the link's uplink (promiscuous)
    port, so any frame a host sends to a non-local destination lands
    here and is forwarded to the port owning that address.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str = "sw0",
        forwarding_ns: float = 300.0,
        egress_queueing: bool = False,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        # Written so that NaN fails too: a NaN time would break the heap.
        if not forwarding_ns >= 0:
            raise ValueError(f"forwarding_ns must be non-negative, got {forwarding_ns}")
        self.kernel = kernel
        self.name = name
        self.forwarding_ns = forwarding_ns
        self.egress_queueing = egress_queueing
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._mac_table: Dict[str, EthernetLink] = {}
        #: Memo of destination address ("host#kvs") -> (host, port link);
        #: it never goes stale because ports are never disconnected.
        self._routes: Dict[str, Tuple[str, EthernetLink]] = {}
        #: Per-egress-port occupancy (only maintained when queueing).
        self._egress_busy: Dict[str, float] = {}
        #: Active partition descriptor (None = no partition).  Keys:
        #: ``groups`` (tuple of sorted host-name tuples), ``oneway``,
        #: ``start_ns``, ``until_ns`` (None = until cleared).
        self._partition: Optional[dict] = None
        self._group_of: Dict[str, int] = {}
        self._obs_partition_drops = self.obs.family(
            "counter", "fleet_partition_drops_total", ("src_group", "dst_group")
        )
        self.stats = {"forwarded": 0, "dropped_unknown": 0, "dropped_partitioned": 0}

    def connect(self, link: EthernetLink, host_address: str) -> None:
        """Plug a host link in; the MAC table learns ``host_address``."""
        if host_address in self._mac_table:
            raise SwitchPortError(
                f"address {host_address!r} already connected to {self.name}"
            )
        self._mac_table[host_address] = link
        link.set_uplink(self._ingress)

    @property
    def ports(self) -> Tuple[str, ...]:
        """Connected host addresses, in connection order."""
        return tuple(self._mac_table)

    # -- partitions --------------------------------------------------------

    def set_partition(
        self,
        groups: Sequence[Iterable[str]],
        oneway: bool = False,
        start_ns: float = 0.0,
        until_ns: Optional[float] = None,
    ) -> None:
        """Split the ports into named groups for ``[start_ns, until_ns)``.

        Hosts not named in any group ride with group 0 (by convention
        the majority/controller side -- this is where late-attached
        clients land).  ``until_ns=None`` keeps the partition up until
        :meth:`clear_partition`.  ``oneway`` requires exactly two
        groups and drops only group-0 -> group-1 frames.
        """
        if not start_ns >= 0 or not (until_ns is None or until_ns > start_ns):
            raise SwitchPortError(f"partition window [{start_ns}, {until_ns}) is invalid")
        normalized = tuple(tuple(sorted(set(g))) for g in groups)
        if len(normalized) < 2:
            raise SwitchPortError(
                f"a partition needs at least 2 groups, got {len(normalized)}"
            )
        if oneway and len(normalized) != 2:
            raise SwitchPortError(
                f"a one-way partition needs exactly 2 groups, got {len(normalized)}"
            )
        seen: Dict[str, int] = {}
        for index, group in enumerate(normalized):
            if not group:
                raise SwitchPortError(f"partition group {index} is empty")
            for host in group:
                if host in seen:
                    raise SwitchPortError(
                        f"host {host!r} appears in partition groups "
                        f"{seen[host]} and {index}"
                    )
                seen[host] = index
        self._partition = {
            "groups": normalized,
            "oneway": bool(oneway),
            "start_ns": float(start_ns),
            "until_ns": None if until_ns is None else float(until_ns),
        }
        self._group_of = seen

    def clear_partition(self) -> None:
        self._partition = None
        self._group_of = {}

    @property
    def partition(self) -> Optional[dict]:
        """The active partition descriptor (a copy), or None."""
        return dict(self._partition) if self._partition else None

    def partition_active(self, now: Optional[float] = None) -> bool:
        """Is a partition window covering ``now`` (default: kernel time)?"""
        if self._partition is None:
            return False
        now = self.kernel.now if now is None else now
        until = self._partition["until_ns"]
        return self._partition["start_ns"] <= now and (until is None or now < until)

    def _partitioned(self, src: str, dst: str) -> bool:
        """Should a src -> dst frame be dropped by the active partition?"""
        if not self.partition_active():
            return False
        src_group = self._group_of.get(src, 0)
        dst_group = self._group_of.get(dst, 0)
        if src_group == dst_group:
            return False
        if self._partition["oneway"]:
            return src_group == 0 and dst_group == 1
        return True

    # -- forwarding --------------------------------------------------------

    def _ingress(self, frame: Frame) -> None:
        route = self._routes.get(frame.dst)
        if route is None:
            # Sub-addresses ("host#tx") route to the host's port.
            host = frame.dst.split("#")[0]
            link = self._mac_table.get(host)
            if link is None:
                self.stats["dropped_unknown"] += 1
                return
            route = self._routes[frame.dst] = (host, link)
        host, link = route
        if self._partition is not None:
            src_host = frame.src.split("#")[0]
            if self._partitioned(src_host, host):
                # Dropped at ingress: no forwarding latency, no egress
                # occupancy -- intra-group flows never feel the loss.
                self.stats["dropped_partitioned"] += 1
                if self.obs:
                    self._obs_partition_drops.labels(
                        self._group_of.get(src_host, 0), self._group_of.get(host, 0)
                    ).inc()
                return
        self.stats["forwarded"] += 1
        # Store-and-forward: re-serialize on the egress link after the
        # switching latency.
        departure = self.kernel.now + self.forwarding_ns
        if self.egress_queueing:
            # Shared output port: frames to this host leave one at a
            # time at the port's line rate, whatever their ingress.
            busy = self._egress_busy.get(host, 0.0)
            if busy > departure:  # max(departure, busy), same float
                departure = busy
            self._egress_busy[host] = departure + frame.wire_bytes / link.rate
        self.kernel.call_at(departure, link.send, frame)

    # -- checkpoint/restore (repro.snap) ---------------------------------

    SNAP_VERSION = 2

    def snapshot_state(self) -> dict:
        state = {
            "stats": dict(self.stats),
            "egress_busy": dict(self._egress_busy),
            "partition": None,
        }
        if self._partition is not None:
            state["partition"] = {
                "groups": [list(g) for g in self._partition["groups"]],
                "oneway": self._partition["oneway"],
                "start_ns": self._partition["start_ns"],
                "until_ns": self._partition["until_ns"],
            }
        return state

    def restore_state(self, state: dict) -> None:
        self.stats.update(state["stats"])
        self._egress_busy = {
            host: float(t) for host, t in state["egress_busy"].items()
        }
        partition = state.get("partition")
        if partition is None:
            self.clear_partition()
        else:
            self.set_partition(
                [tuple(g) for g in partition["groups"]],
                oneway=partition["oneway"],
                start_ns=partition["start_ns"],
                until_ns=partition["until_ns"],
            )


def two_hosts_via_switch(
    kernel: Kernel,
    rate_gbps: float = 100.0,
    host_a: str = "enzianA",
    host_b: str = "enzianB",
    loss_rate: float = 0.0,
) -> tuple[Switch, EthernetLink, EthernetLink]:
    """The standard two-Enzian topology: two links joined by a switch.

    Each host attaches to its returned link under its own address;
    frames to the peer traverse the switch automatically.
    """
    switch = Switch(kernel)
    link_a = EthernetLink(kernel, rate_gbps, name="linkA", loss_rate=loss_rate, seed=11)
    link_b = EthernetLink(kernel, rate_gbps, name="linkB", loss_rate=loss_rate, seed=13)
    switch.connect(link_a, host_a)
    switch.connect(link_b, host_b)
    return switch, link_a, link_b


def star_topology(
    kernel: Kernel,
    hosts: Iterable[str],
    rate_gbps: float = 100.0,
    propagation_ns: float = 500.0,
    forwarding_ns: float = 300.0,
    loss_rate: float = 0.0,
    egress_queueing: bool = False,
    base_seed: int = 101,
    obs=None,
) -> tuple[Switch, Dict[str, EthernetLink]]:
    """N hosts on one switch: the rack topology.

    Returns the switch and a per-host link map; each host attaches to
    its own link under its own address, and anything non-local crosses
    the switch.  Per-link loss seeds derive deterministically from
    ``base_seed`` and the rack-slot index.
    """
    hosts = list(hosts)
    if len(hosts) < 2:
        raise SwitchPortError(f"a star needs at least 2 hosts, got {len(hosts)}")
    switch = Switch(
        kernel, forwarding_ns=forwarding_ns, egress_queueing=egress_queueing, obs=obs
    )
    links: Dict[str, EthernetLink] = {}
    for index, host in enumerate(hosts):
        link = EthernetLink(
            kernel,
            rate_gbps,
            propagation_ns=propagation_ns,
            loss_rate=loss_rate,
            seed=base_seed + 2 * index,
            name=f"link-{host}",
        )
        switch.connect(link, host)
        links[host] = link
    return switch, links
