"""Timed transport: the physical ECI link model.

ECI runs over 24 serdes lanes of 10 Gb/s, organized as two links of 12
lanes (§5.1).  Transactions can use either link; the CPU's
load-balancing strategy is configurable at boot time.  The model
captures per-link serialization (a link transmits one message at a
time, at the aggregate lane rate), encoding efficiency, propagation
delay, and the link-selection policy.

The same class also models the degraded configurations used during
bring-up ("early debugging of ECI was done with 4 lanes rather than the
full 24", §4.4) via ``lanes_per_link`` and ``links``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..params import EciLinkParams
from ..sim import Kernel
from ..sim.units import gbps_to_bytes_per_ns
from .messages import Message, VirtualCircuit
from .protocol import Transport


class EciLinkTransport(Transport):
    """Transport delivering messages over modelled ECI links.

    Each (link, direction) pair is an independent serializer: a message
    occupies it for ``wire_bytes / link_rate`` and arrives after an
    additional propagation delay.  Per-line ordering is preserved under
    the default ``address`` policy because a line's traffic always picks
    the same link.

    Fault tolerance
    ---------------
    The link layer survives the perturbations bring-up produces on the
    real board (§4.4):

    * **CRC-protected retransmit** -- a corrupted message (injected via
      :meth:`inject_bit_flips` or a ``fault_rate`` drawn from the
      kernel's seeded RNG) fails its CRC at the receiver, which drains
      the buffer (returning the flow-control credit) and NAKs; the
      sender goes back and re-queues the message, re-acquiring a credit
      (*credit reclamation*), up to ``crc_retry_limit`` attempts.
    * **Lane degradation / retraining** -- :meth:`drop_lanes` narrows a
      link (the paper's 4-of-24-lane bring-up mode): the link retrains
      for ``retrain_ns`` (no transmission starts meanwhile) and then
      carries traffic at the degraded rate until restored.

    With no faults injected, none of this machinery runs: timings and
    statistics are bit-identical to the fault-free model.

    Batched delivery scheduling
    ---------------------------
    Back-to-back flits on one serializer (same link, src, dst) used to
    schedule one kernel closure each, so a credit window's worth of
    burst traffic sat in the event heap simultaneously.  Deliveries now
    queue on a per-serializer FIFO drained by a single re-arming kernel
    callback (:meth:`_pump`): at most one event per serializer is in
    the heap at any time, and no per-flit closures are allocated.
    Ordering is provably preserved -- the FIFO is per serializer and
    per-serializer arrival times are monotone non-decreasing (each
    flit's ``start`` is at least the previous flit's ``free_at``) --
    and every flit is still handed off at exactly the arrival time
    computed when it hit the wire, so timings, stats, and traces are
    bit-identical to the unbatched model.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: Optional[EciLinkParams] = None,
        obs=None,
    ):
        super().__init__(kernel, obs=obs)
        self.params = params or EciLinkParams()
        # (link index, src, dst) -> time the serializer frees up
        self._free_at: Dict[Tuple[int, int, int], float] = {}
        # (link index, src, dst) -> FIFO of (arrival, message, retries,
        # corrupt) deliveries in flight; non-empty iff a _pump callback
        # is armed for that serializer.
        self._pending: Dict[
            Tuple[int, int, int], Deque[Tuple[float, Message, int, bool]]
        ] = {}
        # Plain int (not itertools.count) so the position is explicit
        # state a checkpoint can capture.
        self._round_robin = 0
        # Hot-path copies of physical parameters: the link reads its
        # EciLinkParams once, at construction (mutating params on a
        # live transport was never supported; reconfigure by building
        # a new transport or via drop_lanes/restore_lanes).
        self._links = self.params.links
        self._policy = self.params.policy
        self._fixed_link = self.params.fixed_link
        self._propagation_ns = self.params.propagation_ns
        self._credit_return_ns = self.params.credit_return_ns
        self._credits_per_vc = self.params.credits_per_vc
        # Credit-based flow control, per (dst, VC): independent buffer
        # classes so requests can never block responses.
        self._credits: Dict[Tuple[int, VirtualCircuit], int] = {}
        self._waiting: Dict[Tuple[int, VirtualCircuit], Deque[Tuple[Message, int]]] = {}
        # Per-link physical state (lane degradation + retraining).
        self.lanes = [self.params.lanes_per_link] * self.params.links
        self._rate = [self.params.link_rate_bytes_per_ns] * self.params.links
        self._retrain_until = [0.0] * self.params.links
        # Fault injection: one-shot corruptions and a stochastic BER.
        self._corrupt_next = 0
        self.fault_rate = 0.0
        #: Health hook, called as ``on_crc_error(link)`` after each CRC
        #: failure; None (the default) costs one comparison per error.
        self.on_crc_error: Optional[Callable[[int], None]] = None
        self.stats = {
            "messages": 0,
            "bytes_per_link": [0] * self.params.links,
            "queueing_ns": 0.0,
            "credit_stalls": 0,
            "crc_errors": 0,
            "retransmits": 0,
            "messages_lost": 0,
            "retrains": 0,
        }

    @classmethod
    def from_config(cls, kernel: Kernel, config, obs=None) -> "EciLinkTransport":
        """Build from a :class:`repro.config.PlatformConfig` tree."""
        return cls(kernel, params=config.eci.link, obs=obs)

    def select_link(self, message: Message) -> int:
        policy = self._policy
        if policy == "address":
            # Address-interleaved: consecutive lines alternate links.
            # (addr >> 7 is line_address(addr) // 128 for the
            # non-negative addresses Message guarantees.)
            return (message.addr >> 7) % self._links
        if policy == "fixed":
            return self._fixed_link
        chosen = self._round_robin % self._links
        self._round_robin += 1
        return chosen

    def _deliver(self, message: Message) -> None:
        self._admit(message, 0)

    def _admit(self, message: Message, retries: int) -> None:
        if self._credits_per_vc:
            vc_key = (message.dst, message.vc)
            available = self._credits.setdefault(vc_key, self._credits_per_vc)
            if available <= 0:
                # No buffer at the receiver for this VC: park the message.
                self.stats["credit_stalls"] += 1
                if self.obs:
                    self.obs.counter(
                        "eci_credit_stalls_total", {"vc": message.vc.name}
                    ).inc()
                self._waiting.setdefault(vc_key, deque()).append((message, retries))
                return
            self._credits[vc_key] = available - 1
        self._transmit(message, retries)

    def _transmit(self, message: Message, retries: int = 0) -> None:
        link = self.select_link(message)
        key = (link, message.src, message.dst)
        now = self.kernel.now
        wire_bytes = message.wire_bytes
        # A retraining link starts no new transmission until it is done;
        # _retrain_until is 0.0 on a healthy link, so the max is a no-op.
        start = max(now, self._free_at.get(key, 0.0), self._retrain_until[link])
        ser = wire_bytes / self._rate[link]
        self._free_at[key] = start + ser
        arrival = start + ser + self._propagation_ns
        stats = self.stats
        stats["messages"] += 1
        stats["bytes_per_link"][link] += wire_bytes
        stats["queueing_ns"] += start - now
        if self.obs:
            self.obs.counter(
                "eci_link_bytes_total", {"link": str(link)}
            ).inc(wire_bytes)
            self.obs.histogram(
                "eci_link_queueing_ns", help="serializer wait before transmit"
            ).observe(start - now)
        corrupt = False
        if self._corrupt_next:
            self._corrupt_next -= 1
            corrupt = True
        elif self.fault_rate and self.kernel.rng.random() < self.fault_rate:
            corrupt = True
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = deque()
        if pending:
            # Serializer already has a delivery pump armed; this flit
            # rides the same callback chain (arrivals are monotone per
            # serializer, so FIFO order is arrival order).
            pending.append((arrival, message, retries, corrupt))
        else:
            pending.append((arrival, message, retries, corrupt))
            self.kernel.call_at(arrival, self._pump, key)

    def _pump(self, key: Tuple[int, int, int]) -> None:
        """Deliver the serializer's next flit; re-arm if more are in flight.

        Re-arming happens *before* the handoff so that at equal
        timestamps the next arrival keeps its pre-batching insertion
        order relative to events the handoff schedules.
        """
        pending = self._pending[key]
        _arrival, message, retries, corrupt = pending.popleft()
        if pending:
            self.kernel.call_at(pending[0][0], self._pump, key)
        if corrupt:
            self._arrive_corrupt(message, retries, key[0])
        else:
            self._consume(message)

    def _consume(self, message: Message) -> None:
        self._handoff(message)
        if self._credits_per_vc:
            # The receive buffer drains and its credit returns.
            self.kernel.call_after(
                self._credit_return_ns,
                self._return_credit,
                (message.dst, message.vc),
            )

    def _arrive_corrupt(self, message: Message, retries: int, link: int) -> None:
        """A message whose CRC fails at the receiver: drain, NAK, go back."""
        self.stats["crc_errors"] += 1
        if self.obs:
            self.obs.counter(
                "eci_crc_errors_total", {"vc": message.vc.name}
            ).inc()
        if self.on_crc_error is not None:
            # Health policy callback: may renegotiate this link's lanes.
            self.on_crc_error(link)
        if self._credits_per_vc:
            # The corrupt message still occupied a receive buffer; it
            # drains normally and its credit returns -- the retransmitted
            # copy must claim a fresh credit (credit reclamation).
            self.kernel.call_after(
                self._credit_return_ns,
                self._return_credit,
                (message.dst, message.vc),
            )
        if retries >= self.params.crc_retry_limit:
            self.stats["messages_lost"] += 1
            if self.obs:
                self.obs.counter("eci_messages_lost_total").inc()
            return
        self.stats["retransmits"] += 1
        if self.obs:
            self.obs.counter("eci_link_retransmits_total").inc()
        # NAK propagates back to the sender, which re-queues the message.
        self.kernel.call_after(
            self._propagation_ns, self._readmit, (message, retries + 1)
        )

    def _readmit(self, nak: Tuple[Message, int]) -> None:
        self._admit(nak[0], nak[1])

    def _return_credit(self, vc_key: Tuple[int, VirtualCircuit]) -> None:
        waiting = self._waiting.get(vc_key)
        if waiting:
            # Hand the credit straight to the oldest parked message.
            parked, retries = waiting.popleft()
            self._transmit(parked, retries)
        else:
            self._credits[vc_key] = self._credits.get(vc_key, 0) + 1

    # -- fault injection + recovery surface ---------------------------------

    def inject_bit_flips(self, count: int = 1) -> None:
        """Corrupt the next ``count`` transmissions (CRC failure on arrival)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self._corrupt_next += count

    def drop_lanes(self, link: int, lanes: int, retrain_ns: Optional[float] = None) -> None:
        """Degrade ``link`` to ``lanes`` serdes lanes and retrain it.

        Models the §4.4 bring-up reality of links that only train at a
        reduced width: the link carries nothing for ``retrain_ns``, then
        runs at the degraded rate.
        """
        if not 0 <= link < self.params.links:
            raise ValueError(f"link must be in 0..{self.params.links - 1}, got {link}")
        if not 1 <= lanes <= self.params.lanes_per_link:
            raise ValueError(
                f"lanes must be in 1..{self.params.lanes_per_link}, got {lanes}"
            )
        self.lanes[link] = lanes
        self._rate[link] = (
            gbps_to_bytes_per_ns(self.params.lane_gbps * lanes)
            * self.params.encoding_efficiency
        )
        duration = self.params.retrain_ns if retrain_ns is None else retrain_ns
        self._retrain_until[link] = max(
            self._retrain_until[link], self.kernel.now + duration
        )
        self.stats["retrains"] += 1
        if self.obs:
            self.obs.counter("eci_retrains_total", {"link": str(link)}).inc()
            self.obs.gauge("eci_link_lanes", {"link": str(link)}).set(lanes)

    def restore_lanes(self, link: int, retrain_ns: Optional[float] = None) -> None:
        """Bring ``link`` back to full width (another retraining cycle)."""
        self.drop_lanes(link, self.params.lanes_per_link, retrain_ns=retrain_ns)

    def credits_conserved(self) -> bool:
        """True when every flow-control credit has returned home.

        The invariant the chaos soak asserts after traffic drains: no
        credit was leaked by the corrupt-drain/retransmit path and no
        message is still parked waiting for one.
        """
        if not self.params.credits_per_vc:
            return True
        if any(self._waiting.values()):
            return False
        return all(
            count == self.params.credits_per_vc for count in self._credits.values()
        )

    def link_rates_bytes_per_ns(self) -> list[float]:
        """Current effective serialization rate per link.

        Tracks lane degradation: after :meth:`drop_lanes` (or a health
        renegotiation) the affected link's measured bandwidth shrinks
        proportionally to its surviving lane count.
        """
        return list(self._rate)

    def utilization(self, wall_ns: float) -> list[float]:
        """Fraction of each link's one-direction capacity used so far."""
        if wall_ns <= 0:
            return [0.0] * self.params.links
        rate = self.params.link_rate_bytes_per_ns
        return [b / (rate * wall_ns) for b in self.stats["bytes_per_link"]]
