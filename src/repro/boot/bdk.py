"""The Board Development Kit (BDK) environment.

The BDK runs before the processor fully boots (§4.1/§4.4): it checks
DRAM, brings up the ECI protocol (and can dial lanes/speed up and
down), and offers diagnostics.  The boot runs its DRAM check, a
write/read probe of one byte per row of a byte array standing in for
physical DRAM.  Figure 12's workload script is mostly BDK phases: DRAM
check, data-bus test, address-bus test, and two memtests (marching
rows, random data); :func:`repro.platform.figure12_phases` models each by
its duration and power level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class MemoryFault(RuntimeError):
    """A memory test found a mismatch."""

    def __init__(self, test: str, address: int, expected: int, actual: int):
        super().__init__(
            f"{test}: at {address:#x} expected {expected:#04x} got {actual:#04x}"
        )
        self.test = test
        self.address = address
        self.expected = expected
        self.actual = actual


class SimulatedDram:
    """A byte array standing in for physical DRAM."""

    def __init__(self, size: int):
        if size < 16:
            raise ValueError("DRAM must be at least 16 bytes")
        self.size = size
        self.data = bytearray(size)

    def write(self, addr: int, value: int) -> None:
        self.data[self._checked(addr)] = value & 0xFF

    def read(self, addr: int) -> int:
        return self.data[self._checked(addr)]

    def _checked(self, addr: int) -> int:
        if not 0 <= addr < self.size:
            raise IndexError(f"address {addr:#x} out of range")
        return addr


@dataclass
class EciLinkState:
    """Link training state the BDK controls (§4.4: lanes/speed dialing)."""

    lanes: int = 24
    speed_gbps: float = 10.0
    trained: bool = False

    def configure(self, lanes: int, speed_gbps: float) -> None:
        if lanes not in (4, 8, 12, 24):
            raise ValueError(f"unsupported lane configuration {lanes}")
        if not 1.0 <= speed_gbps <= 10.3125:
            raise ValueError(f"speed {speed_gbps} Gb/s out of range")
        self.lanes = lanes
        self.speed_gbps = speed_gbps
        self.trained = False

    def train(self, remote_ready: bool) -> bool:
        """Link training succeeds only when the FPGA shell is loaded
        (§4.5: the initial image must exist before the CPU boots)."""
        self.trained = bool(remote_ready)
        return self.trained

    @property
    def bandwidth_gbps(self) -> float:
        return self.lanes * self.speed_gbps if self.trained else 0.0


@dataclass
class BdkResult:
    """Outcome of one diagnostic, with the duration it took."""

    name: str
    passed: bool
    duration_s: float
    detail: str = ""


class Bdk:
    """The pre-boot environment: diagnostics and ECI bring-up."""

    #: Time per byte touched, seconds (one CPU doing uncached accesses).
    SECONDS_PER_BYTE = 4e-9

    def __init__(self, dram: SimulatedDram, console=None):
        self.dram = dram
        self.console = console
        self.eci = EciLinkState()
        self.results: List[BdkResult] = []

    def _log(self, message: str) -> None:
        if self.console is not None:
            self.console.emit(message)

    def _record(self, name: str, passed: bool, bytes_touched: int, detail: str = ""):
        result = BdkResult(
            name, passed, duration_s=bytes_touched * self.SECONDS_PER_BYTE, detail=detail
        )
        self.results.append(result)
        self._log(f"BDK: {name}: {'PASS' if passed else 'FAIL'} {detail}")
        return result

    # -- diagnostics ------------------------------------------------------------

    def dram_check(self) -> BdkResult:
        """Quick presence check: write/read one byte per 1 MiB row."""
        step = max(1, min(1 << 20, self.dram.size // 16))
        touched = 0
        try:
            for addr in range(0, self.dram.size, step):
                self.dram.write(addr, 0xA5)
                touched += 2
                if self.dram.read(addr) != 0xA5:
                    raise MemoryFault("dram_check", addr, 0xA5, self.dram.read(addr))
        except MemoryFault as fault:
            return self._record("dram_check", False, touched, str(fault))
        return self._record("dram_check", True, touched)

    # -- ECI bring-up ---------------------------------------------------------

    def bring_up_eci(
        self, fpga_shell_ready: bool, lanes: int = 24, speed_gbps: float = 10.0
    ) -> bool:
        """Configure and train the coherent link; the FPGA must already
        hold a shell with the ECI lower layers."""
        self.eci.configure(lanes, speed_gbps)
        trained = self.eci.train(remote_ready=fpga_shell_ready)
        self._log(
            f"BDK: ECI {lanes} lanes @ {speed_gbps} Gb/s: "
            f"{'up' if trained else 'no remote node'}"
        )
        return trained

    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)
