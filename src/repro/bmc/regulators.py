"""Voltage-regulator device models behind real PMBus.

Enzian has 25 discrete voltage regulators supplying 30 rails, each
controllable and queryable via PMBus (§4.3).  Each
:class:`VoltageRegulator` here is a full SMBus slave: the firmware
talks to it exclusively through bus transactions, exactly as the real
OpenBMC stack does.

The electrical model covers what the paper's experiments observe:
soft-start ramps, load-dependent current, conversion-loss heating,
over-current/over-voltage protection, and -- crucial to the power
sequencing work (§4.2) -- *short circuits when a rail is enabled while
its prerequisites are down* ("mistakes in a regulator's configuration
could trigger a short circuit on a high current (over 150 Amps) line").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .pmbus import (
    VOUT_MODE_DEFAULT,
    Operation,
    PmbusCommand,
    StatusBit,
    linear11_encode,
    linear16_decode,
    linear16_encode,
)
from .smbus import SmbusDevice


class BoardClock:
    """Shared wall-clock for the board-management world (seconds)."""

    def __init__(self):
        self.now_s = 0.0

    def advance(self, dt_s: float) -> None:
        # Written so that NaN fails too.
        if not 0 <= dt_s < math.inf:
            raise ValueError(f"time only moves forward, by a finite step; got {dt_s}")
        self.now_s += dt_s


class LoadBook:
    """Current power demand (watts) per rail, set by running workloads."""

    def __init__(self):
        self._demand_w: Dict[str, float] = {}
        #: Platform-wide demand multiplier in (0, 1].  The health layer's
        #: brown-out policy lowers this to run degraded-but-alive instead
        #: of shutting down; 1.0 (the default) is float-exact identity.
        self.throttle = 1.0

    def set_demand(self, rail: str, watts: float) -> None:
        # Written so that NaN fails too: a NaN demand would otherwise
        # surface at the next current read, in the LINEAR11 encoder.
        if not 0 <= watts < math.inf:
            raise ValueError(f"demand must be non-negative and finite, got {watts}")
        self._demand_w[rail] = watts

    def demand_w(self, rail: str) -> float:
        return self._demand_w.get(rail, 0.0) * self.throttle

    def clear(self) -> None:
        self._demand_w.clear()


@dataclass(frozen=True)
class PowerRail:
    """One voltage rail on the board."""

    name: str
    nominal_v: float
    max_current_a: float
    idle_w: float = 0.5  # leakage / always-on draw when the rail is up

    def __post_init__(self):
        if self.nominal_v <= 0 or self.max_current_a <= 0:
            raise ValueError(f"rail {self.name}: voltage and current must be positive")


@dataclass(frozen=True)
class RegulatorParams:
    """Device characteristics."""

    soft_start_ms: float = 5.0
    efficiency: float = 0.90
    ambient_c: float = 35.0
    #: Thermal resistance: degrees C per watt dissipated in the regulator.
    theta_c_per_w: float = 1.2
    #: OCP threshold as a multiple of the rail's max current.
    ocp_multiple: float = 1.25
    short_circuit_a: float = 180.0

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.soft_start_ms < 0:
            raise ValueError("soft_start_ms must be non-negative")


class VoltageRegulator(SmbusDevice):
    """A PMBus-controlled regulator supplying one rail."""

    def __init__(
        self,
        address: int,
        rail: PowerRail,
        clock: BoardClock,
        loads: LoadBook,
        params: Optional[RegulatorParams] = None,
        requires: tuple[str, ...] = (),
        rail_lookup: Optional[Callable[[str], "VoltageRegulator"]] = None,
        mfr_model: str = "SIM-REG",
    ):
        super().__init__(address)
        self.rail = rail
        self.clock = clock
        self.loads = loads
        self.params = params or RegulatorParams()
        self.requires = requires
        self.rail_lookup = rail_lookup
        self.mfr_model = mfr_model
        self.enabled = False
        self._enable_time_s: Optional[float] = None
        self.vout_setpoint = rail.nominal_v
        self.status = int(StatusBit.OFF)
        self.faulted = False
        self.short_circuited = False

    # -- electrical model ---------------------------------------------------

    @property
    def ramp_fraction(self) -> float:
        if not self.enabled or self._enable_time_s is None:
            return 0.0
        if self.params.soft_start_ms == 0:
            return 1.0
        elapsed_ms = (self.clock.now_s - self._enable_time_s) * 1000.0
        return min(1.0, max(0.0, elapsed_ms / self.params.soft_start_ms))

    @property
    def vout(self) -> float:
        if self.faulted:
            return 0.0
        return self.vout_setpoint * self.ramp_fraction

    @property
    def live(self) -> bool:
        """Rail within regulation (>90% of setpoint)."""
        return self.vout >= 0.9 * self.vout_setpoint and not self.faulted

    @property
    def iout(self) -> float:
        if self.short_circuited:
            return self.params.short_circuit_a
        vout = self.vout
        if vout < 0.05:
            return 0.0
        demand = self.rail.idle_w + self.loads.demand_w(self.rail.name)
        return demand / vout

    @property
    def power_out_w(self) -> float:
        return self.vout * self.iout

    @property
    def dissipation_w(self) -> float:
        """Conversion loss heating the regulator itself."""
        eff = self.params.efficiency
        return self.power_out_w * (1.0 - eff) / eff

    @property
    def temperature_c(self) -> float:
        return self.params.ambient_c + self.params.theta_c_per_w * self.dissipation_w

    # -- control -------------------------------------------------------------

    def enable(self) -> None:
        if self.faulted:
            return  # latched off until CLEAR_FAULTS
        # The physics of bad sequencing: enabling into a domain whose
        # prerequisite rails are down drives current through protection
        # diodes / body diodes into the dead domain -- a short.
        if self.rail_lookup is not None:
            for name in self.requires:
                if not self.rail_lookup(name).live:
                    self.short_circuited = True
                    break
        self.enabled = True
        self._enable_time_s = self.clock.now_s
        self.status &= ~int(StatusBit.OFF)
        if self.short_circuited:
            self._trip(StatusBit.IOUT_OC)

    def disable(self) -> None:
        self.enabled = False
        self._enable_time_s = None
        self.status |= int(StatusBit.OFF)

    def check_protection(self) -> None:
        """Evaluate OCP/OVP against current operating point."""
        if not self.enabled or self.faulted:
            return
        if self.iout > self.rail.max_current_a * self.params.ocp_multiple:
            self._trip(StatusBit.IOUT_OC)
        if self.vout > self.vout_setpoint * 1.15:
            self._trip(StatusBit.VOUT_OV)

    def _trip(self, bit: StatusBit) -> None:
        self.faulted = True
        self.enabled = False
        self.status |= int(bit) | int(StatusBit.OFF)

    def clear_faults(self) -> None:
        self.faulted = False
        self.short_circuited = False
        self.status &= int(StatusBit.OFF)  # keep only the OFF bit

    # -- PMBus command handling ----------------------------------------------

    def handle_write(self, command: int, data: bytes) -> bool:
        if command == PmbusCommand.OPERATION and len(data) == 1:
            if data[0] == Operation.ON:
                self.enable()
            else:
                self.disable()
            return True
        if command == PmbusCommand.VOUT_COMMAND and len(data) == 2:
            word = int.from_bytes(data, "little")
            value = linear16_decode(word, VOUT_MODE_DEFAULT)
            if not 0.3 * self.rail.nominal_v <= value <= 1.3 * self.rail.nominal_v:
                return False  # NACK an implausible setpoint
            self.vout_setpoint = value
            return True
        return False

    def handle_send(self, command: int) -> bool:
        if command == PmbusCommand.CLEAR_FAULTS:
            self.clear_faults()
        return True

    def handle_read(self, command: int, length: int) -> bytes:
        self.check_protection()
        if command == PmbusCommand.VOUT_MODE:
            return bytes([VOUT_MODE_DEFAULT])
        if command == PmbusCommand.READ_VOUT:
            return linear16_encode(self.vout, VOUT_MODE_DEFAULT).to_bytes(2, "little")
        if command == PmbusCommand.READ_IOUT:
            return linear11_encode(self.iout).to_bytes(2, "little")
        if command == PmbusCommand.READ_TEMPERATURE_1:
            return linear11_encode(self.temperature_c).to_bytes(2, "little")
        if command == PmbusCommand.READ_POUT:
            return linear11_encode(self.power_out_w).to_bytes(2, "little")
        if command == PmbusCommand.STATUS_WORD:
            return self.status.to_bytes(2, "little")
        if command == PmbusCommand.MFR_MODEL:
            return self.mfr_model.encode()[:length].ljust(length, b" ")
        return b"\xFF" * length

    def block_length(self, command: int) -> Optional[int]:
        if command == PmbusCommand.MFR_MODEL:
            return len(self.mfr_model)
        return None
