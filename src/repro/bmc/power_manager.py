"""The BMC power manager: firmware driving regulators over PMBus.

This is the control surface the artifact appendix exposes
(``common_power_up()``, ``cpu_power_up()``, ``print_current_all()``):
a firmware object that owns the I2C bus, the regulator devices, and the
solved power sequences, and that advances board time as it waits for
rails to settle.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from .i2c import I2cBus
from .pmbus import Operation, PmbusCommand, StatusBit, VOUT_MODE_DEFAULT, linear11_decode, linear16_decode
from .regulators import BoardClock, LoadBook, PowerRail, RegulatorParams, VoltageRegulator
from .sequencing import (
    ALL_RAILS,
    COMMON_RAILS,
    CPU_RAILS,
    FPGA_RAILS,
    RailRequirement,
    power_down_order,
    solve_sequence,
    verify_sequence,
)
from .smbus import SmbusController

#: Electrical definition of every rail: (nominal volts, max amps, idle watts).
RAIL_ELECTRICAL: Dict[str, tuple[float, float, float]] = {
    "12V_SB": (12.0, 8.0, 2.0),
    "3V3_BMC": (3.3, 3.0, 2.5),
    "1V8_BMC": (1.8, 2.0, 0.8),
    "12V_MAIN": (12.0, 80.0, 3.0),
    "5V_MAIN": (5.0, 20.0, 1.5),
    "3V3_MAIN": (3.3, 20.0, 1.5),
    "CLK_MAIN": (3.3, 2.0, 0.7),
    "VDD_CORE": (0.98, 160.0, 6.0),      # the >150 A CPU core rail
    "VDD_09_CPU": (0.9, 30.0, 1.0),
    "VDD_15_CPU": (1.5, 20.0, 1.0),
    "VDD_CPU_IO": (1.8, 10.0, 0.5),
    "VDD_DDRCPU01": (1.2, 30.0, 1.5),
    "VTT_DDRCPU01": (0.6, 6.0, 0.3),
    "VDD_DDRCPU23": (1.2, 30.0, 1.5),
    "VTT_DDRCPU23": (0.6, 6.0, 0.3),
    "VCCINT": (0.85, 120.0, 4.0),        # FPGA core rail
    "VCCINT_IO": (0.85, 20.0, 0.8),
    "VCCBRAM": (0.9, 10.0, 0.5),
    "VCCAUX": (1.8, 10.0, 0.8),
    "VCC1V8_FPGA": (1.8, 10.0, 0.5),
    "MGTAVCC": (0.9, 20.0, 1.0),
    "MGTAVTT": (1.2, 20.0, 1.0),
    "VDD_DDRFPGA01": (1.2, 30.0, 1.5),
    "VTT_DDRFPGA01": (0.6, 6.0, 0.3),
    "VDD_DDRFPGA23": (1.2, 30.0, 1.5),
    "VTT_DDRFPGA23": (0.6, 6.0, 0.3),
}

#: The four regulator groups Figure 12 plots.
PRIMARY_DOMAINS = {
    "CPU": "VDD_CORE",
    "FPGA": "VCCINT",
    "DRAM0": "VDD_DDRCPU01",
    "DRAM1": "VDD_DDRCPU23",
}


class PowerManagerError(RuntimeError):
    """A rail failed to come up or a sequence was rejected."""


class RailFaultError(PowerManagerError):
    """A specific rail tripped protection during bring-up.

    Carries the rail name and raw STATUS_WORD so recovery logic (and
    the fault-injection soak) can reason about *what* failed.
    """

    def __init__(self, rail: str, status: int, reason: str):
        super().__init__(f"rail {rail} {reason} (status: {decode_status(status)})")
        self.rail = rail
        self.status = status


#: STATUS_WORD bits worth naming in diagnostics, most severe first.
_STATUS_FLAGS = (
    (StatusBit.IOUT_OC, "OCP"),
    (StatusBit.VOUT_OV, "OVP"),
    (StatusBit.TEMPERATURE, "OTP"),
    (StatusBit.VIN_UV, "VIN-UV"),
    (StatusBit.CML, "CML"),
    (StatusBit.BUSY, "BUSY"),
    (StatusBit.OFF, "OFF"),
)

#: The protection bits that mean "this rail tripped".
FAULT_STATUS_MASK = (
    int(StatusBit.IOUT_OC) | int(StatusBit.VOUT_OV) | int(StatusBit.TEMPERATURE)
)


def decode_status(status: int) -> str:
    """Human-readable decoding of a PMBus STATUS_WORD (``"OCP|OFF"``)."""
    names = [name for bit, name in _STATUS_FLAGS if status & int(bit)]
    return "|".join(names) if names else "ok"


class PowerManager:
    """The BMC firmware's power-control stack."""

    def __init__(
        self,
        clock: Optional[BoardClock] = None,
        loads: Optional[LoadBook] = None,
        requirements: Sequence[RailRequirement] = ALL_RAILS,
        regulator_params: Optional[RegulatorParams] = None,
        max_resequence_attempts: int = 0,
        resequence_backoff_s: float = 0.25,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.obs = obs if obs is not None else NULL_REGISTRY
        self.clock = clock or BoardClock()
        if obs is not None:
            obs.use_clock(lambda: self.clock.now_s, override=False)
        if max_resequence_attempts < 0:
            raise ValueError("max_resequence_attempts must be non-negative")
        # Written so that NaN fails too: a NaN backoff would turn the board
        # clock NaN at the first re-sequence.
        if not 0 <= resequence_backoff_s < math.inf:
            raise ValueError(
                f"resequence_backoff_s must be non-negative and finite, got {resequence_backoff_s}"
            )
        #: Recovery policy: how many times a faulting rail group is shut
        #: down, cleared, and re-sequenced before the fault is fatal.
        #: 0 keeps the historical fail-fast behaviour.
        self.max_resequence_attempts = max_resequence_attempts
        self.resequence_backoff_s = resequence_backoff_s
        #: Fault-injection hook, called as ``hook("settle", rail)`` after
        #: each rail's settle window.  None costs one comparison per rail.
        self.fault_hook: Optional[Callable[[str, str], None]] = None
        #: Health hook, called as ``degrade_hook(rail, status)`` when a
        #: rail check fails during bring-up.  Returning True means the
        #: policy absorbed the fault (e.g. brown-out -> throttle) and the
        #: check should be re-run; None keeps the historical fail path.
        self.degrade_hook: Optional[Callable[[str, int], bool]] = None
        #: True while a degradation policy holds the load book throttled.
        self.throttled = False
        self.loads = loads or LoadBook()
        self.bus = I2cBus("pmbus0")
        self.smbus = SmbusController(self.bus)
        self.requirements = {r.rail: r for r in requirements}
        self.regulators: Dict[str, VoltageRegulator] = {}
        self._addresses: Dict[str, int] = {}
        params = regulator_params or RegulatorParams()
        for index, req in enumerate(requirements):
            volts, amps, idle = RAIL_ELECTRICAL[req.rail]
            address = 0x20 + index
            regulator = VoltageRegulator(
                address,
                PowerRail(req.rail, volts, amps, idle_w=idle),
                self.clock,
                self.loads,
                params=params,
                requires=req.after,
                rail_lookup=lambda name: self.regulators[name],
            )
            self.bus.attach(address, regulator)
            self.regulators[req.rail] = regulator
            self._addresses[req.rail] = address
        self.events: List[tuple[float, str]] = []

    @classmethod
    def from_config(cls, config, obs=None) -> "PowerManager":
        """Build from a :class:`repro.config.PlatformConfig` tree."""
        recovery = config.faults.recovery
        return cls(
            regulator_params=config.bmc.regulator,
            max_resequence_attempts=recovery.max_resequence_attempts,
            resequence_backoff_s=recovery.resequence_backoff_s,
            obs=obs,
        )

    # -- PMBus primitives ---------------------------------------------------

    def _operation(self, rail: str, value: Operation) -> None:
        self.smbus.write_byte_data(
            self._addresses[rail], PmbusCommand.OPERATION, int(value)
        )

    def read_vout(self, rail: str) -> float:
        word = self.smbus.read_word_data(self._addresses[rail], PmbusCommand.READ_VOUT)
        return linear16_decode(word, VOUT_MODE_DEFAULT)

    def read_iout(self, rail: str) -> float:
        word = self.smbus.read_word_data(self._addresses[rail], PmbusCommand.READ_IOUT)
        return linear11_decode(word)

    def read_temperature(self, rail: str) -> float:
        word = self.smbus.read_word_data(
            self._addresses[rail], PmbusCommand.READ_TEMPERATURE_1
        )
        return linear11_decode(word)

    def read_status(self, rail: str) -> int:
        return self.smbus.read_word_data(
            self._addresses[rail], PmbusCommand.STATUS_WORD
        )

    def read_power_w(self, rail: str) -> float:
        return self.read_vout(rail) * self.read_iout(rail)

    def clear_faults(self, rail: str) -> None:
        self.smbus.send_byte(self._addresses[rail], PmbusCommand.CLEAR_FAULTS)

    # -- graceful degradation --------------------------------------------------

    def enter_throttle(self, fraction: float, reason: str = "") -> None:
        """Scale every rail's load demand down to ``fraction``.

        Throttles compose by taking the minimum, so repeated brown-outs
        ratchet downward rather than oscillating.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("throttle fraction must be in (0, 1]")
        self.loads.throttle = min(self.loads.throttle, fraction)
        self.throttled = self.loads.throttle < 1.0
        suffix = f":{reason}" if reason else ""
        self.events.append(
            (self.clock.now_s, f"throttle:{self.loads.throttle:g}{suffix}")
        )
        if self.obs:
            self.obs.counter("bmc_throttle_events_total").inc()
            self.obs.gauge("bmc_throttle_fraction").set(self.loads.throttle)

    def exit_throttle(self) -> None:
        """Restore full load demand (operator-driven, never automatic)."""
        self.loads.throttle = 1.0
        self.throttled = False
        self.events.append((self.clock.now_s, "throttle:exit"))
        if self.obs:
            self.obs.gauge("bmc_throttle_fraction").set(1.0)

    def recover_rail(self, rail: str) -> None:
        """Clear a latched fault and re-enable one rail in place."""
        self.clear_faults(rail)
        self._operation(rail, Operation.ON)
        self.clock.advance(self.requirements[rail].settle_ms / 1000.0)
        self.events.append((self.clock.now_s, f"recover:{rail}"))
        if self.obs:
            self.obs.counter("bmc_rail_recoveries_total").inc()

    # -- sequences ------------------------------------------------------------

    def _bring_up(self, rails: Sequence[RailRequirement]) -> None:
        """Enable a rail group in solver order, verifying before acting.

        A rail fault mid-sequence triggers the recovery path: gracefully
        shut the group back down in reverse order, clear the latched
        faults, back off, and re-sequence -- up to
        ``max_resequence_attempts`` times before the fault is fatal.
        """
        group = {r.rail for r in rails}
        order = [r for r in solve_sequence(self.requirements.values()) if r in group]
        verify_sequence(
            order,
            [
                RailRequirement(
                    r.rail,
                    tuple(d for d in r.after if d in group),
                    r.settle_ms,
                )
                for r in rails
            ],
        )
        attempt = 0
        while True:
            try:
                self._enable_in_order(order)
                return
            except RailFaultError:
                attempt += 1
                if attempt > self.max_resequence_attempts:
                    raise
                self._recover_group(order, attempt)

    def _enable_in_order(self, order: Sequence[str]) -> None:
        for rail in order:
            self._operation(rail, Operation.ON)
            self.clock.advance(self.requirements[rail].settle_ms / 1000.0)
            if self.fault_hook is not None:
                self.fault_hook("settle", rail)
            status = self.read_status(rail)
            bad = bool(status & FAULT_STATUS_MASK) or not self.regulators[rail].live
            if bad and self.degrade_hook is not None:
                # A degradation policy may absorb the fault (brown-out ->
                # throttled operation) and leave the rail healthy again.
                if self.degrade_hook(rail, status):
                    status = self.read_status(rail)
                    bad = (
                        bool(status & FAULT_STATUS_MASK)
                        or not self.regulators[rail].live
                    )
            if bad:
                if status & FAULT_STATUS_MASK:
                    raise RailFaultError(rail, status, "faulted during bring-up")
                raise RailFaultError(rail, status, "failed to reach regulation")
            self.events.append((self.clock.now_s, f"on:{rail}"))
            if self.obs:
                self.obs.counter("bmc_rail_events_total", {"op": "on"}).inc()
                self.obs.gauge("bmc_rails_live").set(
                    sum(1 for r in self.regulators.values() if r.live)
                )

    def _recover_group(self, order: Sequence[str], attempt: int) -> None:
        """Graceful shutdown + fault clearing + backoff for one group."""
        for rail in reversed(order):
            if self.regulators[rail].enabled or self.regulators[rail].faulted:
                self._operation(rail, Operation.OFF)
                self.clock.advance(0.002)
                self.events.append((self.clock.now_s, f"off:{rail}"))
        for rail in order:
            self.clear_faults(rail)
        # Exponential backoff: transient conditions (thermal spikes,
        # inrush collisions) get time to decay before the retry.
        self.clock.advance(self.resequence_backoff_s * (2 ** (attempt - 1)))
        self.events.append((self.clock.now_s, f"resequence:{attempt}"))
        if self.obs:
            self.obs.counter("bmc_resequences_total").inc()

    def _bring_down(self, rails: Sequence[RailRequirement]) -> None:
        group = {r.rail for r in rails}
        up_order = [r for r in solve_sequence(self.requirements.values()) if r in group]
        for rail in power_down_order(up_order):
            self._operation(rail, Operation.OFF)
            self.clock.advance(0.002)
            self.events.append((self.clock.now_s, f"off:{rail}"))
            if self.obs:
                self.obs.counter("bmc_rail_events_total", {"op": "off"}).inc()
                self.obs.gauge("bmc_rails_live").set(
                    sum(1 for r in self.regulators.values() if r.live)
                )

    def common_power_up(self) -> None:
        """PSU plugged in: standby, main, and clock domains."""
        self._bring_up(COMMON_RAILS)

    def fpga_power_up(self) -> None:
        self._bring_up(FPGA_RAILS)

    def cpu_power_up(self) -> None:
        self._bring_up(CPU_RAILS)

    def cpu_power_down(self) -> None:
        self._bring_down(CPU_RAILS)

    def fpga_power_down(self) -> None:
        self._bring_down(FPGA_RAILS)

    def power_down(self) -> None:
        """Full power-off: reverse of the full power-up order."""
        self._bring_down(CPU_RAILS)
        self._bring_down(FPGA_RAILS)
        self._bring_down(COMMON_RAILS)

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # The control-plane state: board clock, throttle position, the event
    # log, and each regulator's electrical state.  The bus topology and
    # solved sequences are wiring, rebuilt from configuration.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        regulators = {}
        for rail, regulator in self.regulators.items():
            regulators[rail] = {
                "enabled": regulator.enabled,
                "faulted": regulator.faulted,
                "short_circuited": regulator.short_circuited,
                "vout_setpoint": regulator.vout_setpoint,
                "status": regulator.status,
                "enable_time_s": regulator._enable_time_s,
            }
        return {
            "clock_s": self.clock.now_s,
            "throttled": self.throttled,
            "throttle": self.loads.throttle,
            "demand_w": dict(self.loads._demand_w),
            "events": [list(entry) for entry in self.events],
            "regulators": regulators,
        }

    def restore_state(self, state: dict) -> None:
        self.clock.now_s = float(state["clock_s"])
        self.throttled = state["throttled"]
        self.loads.throttle = state["throttle"]
        self.loads._demand_w = {
            rail: float(w) for rail, w in state["demand_w"].items()
        }
        self.events = [tuple(entry) for entry in state["events"]]
        for rail, snap in state["regulators"].items():
            regulator = self.regulators.get(rail)
            if regulator is None:
                raise PowerManagerError(f"snapshot names unknown rail {rail!r}")
            regulator.enabled = snap["enabled"]
            regulator.faulted = snap["faulted"]
            regulator.short_circuited = snap["short_circuited"]
            regulator.vout_setpoint = snap["vout_setpoint"]
            regulator.status = snap["status"]
            regulator._enable_time_s = snap["enable_time_s"]

    # -- diagnostics -----------------------------------------------------------

    def rails_live(self, rails: Sequence[RailRequirement]) -> bool:
        return all(self.regulators[r.rail].live for r in rails)

    def print_current_all(self) -> str:
        """The BMC console command from the artifact appendix."""
        lines = [f"{'rail':<16}{'V':>8}{'A':>9}{'W':>9}{'degC':>7}  status"]
        for rail in self.regulators:
            vout = self.read_vout(rail)
            iout = self.read_iout(rail)
            temp = self.read_temperature(rail)
            status = self.read_status(rail)
            flag = "OFF" if status & int(StatusBit.OFF) else "on"
            if status & int(StatusBit.IOUT_OC):
                flag = "OCP-FAULT"
            lines.append(
                f"{rail:<16}{vout:>8.3f}{iout:>9.2f}{vout * iout:>9.2f}"
                f"{temp:>7.1f}  {flag}"
            )
        return "\n".join(lines)
