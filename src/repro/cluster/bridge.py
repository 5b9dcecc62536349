"""Extending cache coherence across machines: the ECI network bridge.

§6: "the DRAM of the FPGA is made available as network attached memory
and accessible either through RDMA, or on Enzian by extending the
cache coherency protocol via a 'bridge' implemented on the FPGA."

The bridge joins protocol domains (boards) into one: each board runs a
:class:`BridgePort` attached to its local transport under a proxy node
id; messages addressed to remote node ids are serialized with the ECI
wire format (:mod:`repro.eci.serialization` -- the same
interoperability format the tools use), carried in Ethernet frames,
and re-injected into the peer's local transport.  The MOESI agents are
completely unaware they are talking across a network; they just see
higher latency -- which is exactly the paper's framing.

Beyond the paper's two-board topology, :func:`bridge_fleet` joins *N*
domains through a multi-port switch: each port carries a routing table
mapping every remote node id to the machine that hosts it, so a frame
goes straight to the owning board's switch port.  With two domains the
routing table collapses to a single peer and the frames are
byte-for-byte what the historical point-to-point pair produced
(pinned by ``tests/cluster/test_fleet_bridge.py``).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

from ..eci.messages import Message
from ..eci.protocol import ProtocolNode, Transport
from ..eci.serialization import decode, encode
from ..net.ethernet import EthernetLink, Frame
from ..sim import Kernel


class BridgeError(RuntimeError):
    """Misconfigured bridge topology."""


class BridgeTopologyError(BridgeError):
    """Domains that cannot form one coherence domain (overlapping node
    ids, duplicate addresses, too few sides)."""


class BridgeRouteError(BridgeError):
    """A tunneled message addressed to a node id no route covers."""


class BridgePort(ProtocolNode):
    """One board's end of the coherence bridge.

    Attached to the local transport as a *range proxy*: every remote
    node id is registered to route here.  ``routes`` maps each remote
    node id to the address of the machine hosting it; frames from any
    peer are decoded and re-injected locally.  The point-to-point pair
    is the special case where every route points at the same peer
    address.
    """

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        link: EthernetLink,
        local_address: str,
        routes: Mapping[int, str],
        proxy_id: int = 0,
    ):
        self.kernel = kernel
        self.transport = transport
        self.routes: dict[int, str] = dict(routes)
        if not self.routes:
            raise BridgeTopologyError("bridge needs at least one remote node id")
        self.node_id = proxy_id
        for node_id in sorted(self.routes):
            self._attach_as(transport, node_id)
        self.link = link
        self.local_address = local_address
        remote_addresses = sorted(set(self.routes.values()))
        #: The single peer address in a two-board topology (None when
        #: this port routes to several machines).
        self.remote_address = (
            remote_addresses[0] if len(remote_addresses) == 1 else None
        )
        link.attach(f"{local_address}#eci", self._on_frame)
        self.stats = {"tunneled_out": 0, "tunneled_in": 0, "bytes": 0}

    def _attach_as(self, transport: Transport, node_id: int) -> None:
        if node_id in transport._nodes:
            raise BridgeTopologyError(f"node id {node_id} already exists locally")
        transport._nodes[node_id] = self

    # -- local -> remote -------------------------------------------------------

    def receive(self, message: Message) -> None:
        """A local agent sent a message to a remote node: tunnel it."""
        remote = self.routes.get(message.dst)
        if remote is None:
            raise BridgeRouteError(
                f"{self.local_address}: no route for node id {message.dst}"
            )
        wire = encode(message)
        self.stats["tunneled_out"] += 1
        self.stats["bytes"] += len(wire)
        self.link.send(
            Frame(
                src=f"{self.local_address}#eci",
                dst=f"{remote}#eci",
                payload=wire,
                size_bytes=len(wire) + 14,  # tunnel header
            )
        )

    # -- remote -> local -------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        message = decode(frame.payload)
        self.stats["tunneled_in"] += 1
        self.transport._handoff(message)


#: One side of a fleet bridge: (transport, link, address, node ids).
Domain = Tuple[Transport, EthernetLink, str, Iterable[int]]


def bridge_fleet(kernel: Kernel, domains: Sequence[Domain]) -> list[BridgePort]:
    """Join N boards into one coherence domain through a switch.

    Each entry supplies the board's transport, its link into the
    switch, its address, and the node ids living on it.  Node ids must
    be globally unique and addresses distinct; proxies are allocated
    above the highest node id, in domain order (for two domains this
    reproduces :func:`bridge_domains` exactly).
    """
    if len(domains) < 2:
        raise BridgeTopologyError(
            f"a coherence domain needs at least 2 sides, got {len(domains)}"
        )
    node_sets = [set(nodes) for _, _, _, nodes in domains]
    addresses = [address for _, _, address, _ in domains]
    if len(set(addresses)) != len(addresses):
        raise BridgeTopologyError(f"duplicate bridge addresses: {addresses}")
    seen: set[int] = set()
    for nodes in node_sets:
        if not nodes:
            raise BridgeTopologyError("every domain needs at least one node id")
        overlap = seen & nodes
        if overlap:
            raise BridgeTopologyError(f"node ids overlap: {sorted(overlap)}")
        seen |= nodes
    #: Every node id -> the address of the machine hosting it.
    owner = {
        node_id: address
        for address, nodes in zip(addresses, node_sets)
        for node_id in nodes
    }
    next_proxy = max(seen) + 1
    ports = []
    for (transport, link, address, _), nodes in zip(domains, node_sets):
        routes = {
            node_id: owner[node_id] for node_id in sorted(seen - nodes)
        }
        ports.append(
            BridgePort(kernel, transport, link, address, routes, proxy_id=next_proxy)
        )
        next_proxy += 1
    return ports


def bridge_domains(
    kernel: Kernel,
    transport_a: Transport,
    transport_b: Transport,
    link_a: EthernetLink,
    link_b: EthernetLink,
    nodes_a: Iterable[int],
    nodes_b: Iterable[int],
    address_a: str = "enzianA",
    address_b: str = "enzianB",
) -> tuple[BridgePort, BridgePort]:
    """Join two boards into one coherence domain.

    ``nodes_a``/``nodes_b`` are the node ids living on each board; ids
    must be globally unique across the cluster.  This is the two-sided
    special case of :func:`bridge_fleet`.
    """
    port_a, port_b = bridge_fleet(
        kernel,
        [
            (transport_a, link_a, address_a, nodes_a),
            (transport_b, link_b, address_b, nodes_b),
        ],
    )
    return port_a, port_b
