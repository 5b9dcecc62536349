"""Graceful-degradation policies: turn faults into degraded-but-correct.

Two concrete policies, both modelled on what the real board does:

* :class:`EciDegradationPolicy` -- the §4.4 story ("early debugging of
  ECI was done with 4 lanes rather than the full 24") made automatic: a
  link that accumulates :data:`CRC_STORM_THRESHOLD` CRC errors within
  :data:`CRC_WINDOW_NS` is *renegotiated* to half its lane count (down
  to :data:`MIN_LANES`), retraining and then carrying traffic at the
  reduced -- but correct -- bandwidth.  Dropping the marginal lanes
  removes most of the error source, so the residual stochastic error
  rate is scaled by a relief factor.  A link that keeps storming after
  the renegotiation budget is spent is declared FAILED.

* :class:`PowerDegradationPolicy` -- PMBus brown-out (VIN_UV) and
  over-temperature (OTP) events drive the power manager into a
  *throttled* degraded mode (load-book demands scaled down, rail
  cleared and re-enabled) instead of shutting the machine down.
  Over-current and over-voltage stay fatal: those are wiring faults,
  not load transients, and re-enabling into them would be the §4.2
  150 A short all over again.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ..bmc.pmbus import StatusBit
from .state import HealthStateMachine

#: Status bits the power policy may absorb into throttled operation.
THROTTLE_STATUS_BITS = int(StatusBit.VIN_UV) | int(StatusBit.TEMPERATURE)
#: Status bits that stay fatal no matter what (electrical damage risk).
FATAL_STATUS_BITS = int(StatusBit.IOUT_OC) | int(StatusBit.VOUT_OV)

#: CRC errors within ``CRC_WINDOW_NS`` (kernel ns) that trigger a lane
#: renegotiation.
CRC_STORM_THRESHOLD = 8
CRC_WINDOW_NS = 10_000.0
#: Lane floor: renegotiation halves the lane count down to this width
#: (4 is the paper's bring-up mode).
MIN_LANES = 4
#: Residual error-rate multiplier after retraining at reduced width
#: (dropping the marginal lanes removes most of the error source).
RELIEF_FACTOR = 0.1
#: Renegotiations allowed per link before the link is declared FAILED.
MAX_RENEGOTIATIONS = 3

#: Load-book multiplier applied in throttled degraded mode.
THROTTLE_FRACTION = 0.5
#: Throttle events absorbed before a rail fault is fatal after all.
MAX_THROTTLE_EVENTS = 4


class EciDegradationPolicy:
    """Auto-renegotiate a storming link to a reduced lane count."""

    def __init__(
        self,
        transport,
        kernel,
        health: HealthStateMachine,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.transport = transport
        self.kernel = kernel
        self.health = health
        self.obs = obs if obs is not None else NULL_REGISTRY
        links = transport.params.links
        self._windows: List[Deque[float]] = [deque() for _ in range(links)]
        self.renegotiations = [0] * links
        #: Renegotiation log: (time, link, lanes-after).
        self.events: List[Tuple[float, int, int]] = []
        transport.on_crc_error = self.on_crc_error

    def on_crc_error(self, link: int) -> None:
        """One CRC failure on ``link``; renegotiate if the window fills."""
        now = self.kernel.now
        window = self._windows[link]
        window.append(now)
        cutoff = now - CRC_WINDOW_NS
        while window and window[0] < cutoff:
            window.popleft()
        if len(window) >= CRC_STORM_THRESHOLD:
            self._renegotiate(link, now)

    def _renegotiate(self, link: int, now: float) -> None:
        self._windows[link].clear()
        if self.renegotiations[link] >= MAX_RENEGOTIATIONS:
            self.health.fail(
                f"link{link}: CRC storm persists at "
                f"{self.transport.lanes[link]} lanes"
            )
            return
        self.renegotiations[link] += 1
        lanes = max(MIN_LANES, self.transport.lanes[link] // 2)
        # drop_lanes retrains the link and scales its serialization
        # rate, so the bandwidth model tracks the degraded width.
        self.transport.drop_lanes(link, lanes)
        # The marginal lanes carried most of the error source.
        self.transport.fault_rate *= RELIEF_FACTOR
        self.events.append((now, link, lanes))
        self.health.degrade(f"link{link}: renegotiated to {lanes} lanes")
        if self.obs:
            self.obs.counter(
                "health_lane_renegotiations_total", {"link": str(link)}
            ).inc()
            self.obs.gauge("health_link_lanes", {"link": str(link)}).set(lanes)


class PowerDegradationPolicy:
    """Brown-out / OTP events throttle the machine instead of killing it."""

    def __init__(
        self,
        power,
        health: HealthStateMachine,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.power = power
        self.health = health
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.throttle_events = 0
        #: Absorption log: (time, rail, decoded-status).
        self.events: List[Tuple[float, str, str]] = []
        power.degrade_hook = self.absorb_rail_fault

    def _absorbable(self, status: int) -> bool:
        return bool(status & THROTTLE_STATUS_BITS) and not (
            status & FATAL_STATUS_BITS
        )

    def absorb_rail_fault(self, rail: str, status: int) -> bool:
        """Power-manager hook: absorb a brown-out/OTP at a settle point.

        Returns True when the fault was converted into throttled
        operation (rail cleared, re-enabled, re-settled); False hands
        the fault back to the fail/re-sequence path.
        """
        from ..bmc.power_manager import decode_status

        if not self._absorbable(status):
            return False
        if self.throttle_events >= MAX_THROTTLE_EVENTS:
            self.health.fail(f"rail {rail}: throttle budget exhausted")
            return False
        self.throttle_events += 1
        now = self.power.clock.now_s
        self.events.append((now, rail, decode_status(status)))
        self.power.enter_throttle(
            THROTTLE_FRACTION, reason=f"{rail}:{decode_status(status)}"
        )
        self.power.recover_rail(rail)
        self.health.degrade(f"rail {rail}: throttled ({decode_status(status)})")
        if self.obs:
            self.obs.counter(
                "power_throttle_events_total", {"rail": rail}
            ).inc()
        return True

    def observe(self, label: str, rail: str, sample) -> None:
        """Telemetry observer: catch after-sequencing brown-outs/OTP."""
        regulator = self.power.regulators[rail]
        if regulator.faulted and self._absorbable(regulator.status):
            self.absorb_rail_fault(rail, regulator.status)
