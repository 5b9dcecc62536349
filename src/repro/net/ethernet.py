"""Ethernet links and frames for the simulated network.

Both Enzian nodes are network-rich (§4): 2x40 GbE on the CPU SoC and
16x25 Gb/s serials on the FPGA, configurable as 4x100 GbE.  The link
model is a serializer with propagation delay and an optional loss
process (for exercising the reliable-delivery machinery).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sim import Kernel
from ..sim.units import gbps_to_bytes_per_ns

ETH_OVERHEAD_BYTES = 38  # preamble + MAC header + FCS + min IFG
MTU_DEFAULT = 1500


class LinkAttachError(ValueError):
    """An endpoint or uplink registration that would clobber an
    existing peer.  Subclasses :class:`ValueError` for back-compat with
    callers that caught the untyped duplicate-address error."""


@dataclass(init=False, slots=True, unsafe_hash=True)
class Frame:
    """One Ethernet frame carrying an opaque payload.

    A slotted record that nothing mutates after construction; every hop
    reads ``wire_bytes`` (size plus Ethernet overhead), computed here.
    """

    src: str
    dst: str
    payload: Any
    size_bytes: int
    seq: int = 0
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __init__(self, src: str, dst: str, payload: Any, size_bytes: int, seq: int = 0):
        if size_bytes < 1:
            raise ValueError("frame must have positive size")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.seq = seq
        self.wire_bytes = size_bytes + ETH_OVERHEAD_BYTES


class EthernetLink:
    """A point-to-point full-duplex link.

    ``deliver`` hands frames to a callable endpoint; per-direction
    serialization models the line rate.  ``loss_rate`` drops frames
    randomly (deterministic given ``seed``).
    """

    def __init__(
        self,
        kernel: Kernel,
        rate_gbps: float = 100.0,
        propagation_ns: float = 500.0,
        loss_rate: float = 0.0,
        seed: Optional[int] = 1,
        name: str = "eth",
    ):
        # Written so that NaN fails too: a NaN time would break the heap.
        if not rate_gbps > 0:
            raise ValueError(f"rate must be positive, got {rate_gbps}")
        if not propagation_ns >= 0:
            raise ValueError(f"propagation_ns must be non-negative, got {propagation_ns}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.kernel = kernel
        self.rate = gbps_to_bytes_per_ns(rate_gbps)
        self.rate_gbps = rate_gbps
        self.propagation_ns = propagation_ns
        self.loss_rate = loss_rate
        self.name = name
        # seed=None routes the loss process through the kernel's single
        # seeded RNG (the deterministic fault-injection regime); a local
        # seed keeps the historical per-link stream for existing models.
        self._rng = kernel.rng if seed is None else random.Random(seed)
        #: Optional fault-injection hook: returns 'drop' | 'dup' |
        #: 'reorder' | None for each frame.  None (the default) costs
        #: one comparison per send and changes nothing.
        self.fault_hook: Optional[Callable[[Frame], Optional[str]]] = None
        self._endpoints: dict[str, Callable[[Frame], None]] = {}
        self._uplink: Optional[Callable[[Frame], None]] = None
        self._busy_until: dict[str, float] = {}
        # Per-direction FIFO of (arrival, handler, frame) deliveries in
        # flight; non-empty iff a _pump callback is armed for that src.
        # One re-arming kernel callback per direction replaces one
        # closure per frame; per-src arrivals are monotone, so FIFO
        # order is arrival order and timing is unchanged.
        self._pending: dict[str, "deque[tuple[float, Callable[[Frame], None], Frame]]"] = {}
        self.stats = {
            "frames": 0,
            "dropped": 0,
            "bytes": 0,
            "faulted": 0,
            "duplicated": 0,
            "reordered": 0,
        }

    def attach(self, address: str, handler: Callable[[Frame], None]) -> None:
        if address in self._endpoints:
            raise LinkAttachError(
                f"address {address!r} already attached on {self.name}"
            )
        self._endpoints[address] = handler

    def set_uplink(self, handler: Callable[[Frame], None]) -> None:
        """Promiscuous port: receives frames for unknown destinations
        (how a switch hangs off the link).

        A link has exactly one uplink; plugging the same link into a
        second switch used to silently overwrite the first -- now it is
        a typed error.
        """
        if self._uplink is not None and self._uplink is not handler:
            raise LinkAttachError(
                f"uplink already set on {self.name}; a link plugs into one switch"
            )
        self._uplink = handler

    def send(self, frame: Frame) -> None:
        """Transmit; the frame arrives at ``frame.dst`` (or the uplink)."""
        handler = self._endpoints.get(frame.dst, self._uplink)
        if handler is None:
            raise ValueError(f"no endpoint {frame.dst!r} on {self.name}")
        src = frame.src
        wire_bytes = frame.wire_bytes
        stats = self.stats
        stats["frames"] += 1
        stats["bytes"] += wire_bytes
        now = self.kernel.now
        busy = self._busy_until.get(src, 0.0)
        start = busy if busy > now else now  # max(now, busy), same float
        ser = wire_bytes / self.rate
        self._busy_until[src] = start + ser
        if self.loss_rate and self._rng.random() < self.loss_rate:
            stats["dropped"] += 1
            return
        arrival = start + ser + self.propagation_ns
        if self.fault_hook is not None:
            action = self.fault_hook(frame)
            if action is not None:
                stats["faulted"] += 1
                if action == "drop":
                    stats["dropped"] += 1
                    return
                if action == "dup":
                    # The duplicate trails the original by one frame time.
                    stats["duplicated"] += 1
                    self.kernel.call_at(arrival + ser, lambda _: handler(frame))
                elif action == "reorder":
                    # Delay past the frames behind it: it arrives late.
                    stats["reordered"] += 1
                    self.kernel.call_at(
                        arrival + 4 * ser + self.propagation_ns,
                        lambda _: handler(frame),
                    )
                    return
        pending = self._pending.get(src)
        if pending is None:
            pending = self._pending[src] = deque()
        if not pending:
            self.kernel.call_at(arrival, self._pump, src)
        pending.append((arrival, handler, frame))

    def _pump(self, src: str) -> None:
        """Deliver this direction's next frame; re-arm if more are in flight."""
        pending = self._pending[src]
        _arrival, handler, frame = pending.popleft()
        if pending:
            self.kernel.call_at(pending[0][0], self._pump, src)
        handler(frame)

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # A link owns its serializer occupancy, its statistics, and (when it
    # runs a local loss process) its RNG stream.  In-flight deliveries
    # live in the kernel's event queue, so a quiescent snapshot must see
    # the per-direction FIFOs empty.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        in_flight = sum(len(q) for q in self._pending.values())
        if in_flight:
            from ..snap.protocol import SnapshotError

            raise SnapshotError(
                f"link {self.name!r} has {in_flight} frames in flight; "
                "snapshot only at a quiescent point"
            )
        state: dict = {
            "stats": dict(self.stats),
            "busy_until": dict(self._busy_until),
        }
        if self._rng is not self.kernel.rng:
            version, internal, gauss_next = self._rng.getstate()
            state["rng"] = [version, list(internal), gauss_next]
        return state

    def restore_state(self, state: dict) -> None:
        self.stats.update(state["stats"])
        self._busy_until = {
            src: float(t) for src, t in state["busy_until"].items()
        }
        if "rng" in state and self._rng is not self.kernel.rng:
            version, internal, gauss_next = state["rng"]
            self._rng.setstate((version, tuple(internal), gauss_next))
