"""Diagnostic and stress workloads for the Figure 12 power experiment.

Each workload is expressed as the *electrical load* it places on the
primary rails over time, to be scripted through the telemetry service's
phases.  Wattages are first-order estimates for the parts involved
(48-core ThunderX-1 TDP ~120 W on VDD_CORE; XCVU9P worst-case fabric
power well over 100 W).
"""

from __future__ import annotations

from ..bmc.regulators import LoadBook
from ..fpga.fabric import XCVU9P, Fabric, FabricResources
from ..params import CpuLoadLevels


def apply_cpu_phase(loads: LoadBook, core_w: float, dram_active: bool,
                    levels: CpuLoadLevels | None = None) -> None:
    """Set CPU-domain demands for one phase."""
    levels = levels or CpuLoadLevels()
    loads.set_demand("VDD_CORE", core_w)
    loads.set_demand("VDD_DDRCPU01", levels.dram_w(dram_active))
    loads.set_demand("VDD_DDRCPU23", levels.dram_w(dram_active))


def clear_cpu_load(loads: LoadBook) -> None:
    loads.set_demand("VDD_CORE", 0.0)
    loads.set_demand("VDD_DDRCPU01", 0.0)
    loads.set_demand("VDD_DDRCPU23", 0.0)


class FpgaPowerBurn:
    """The §5.5 stress test: switch flip-flop blocks every clock cycle,
    stepping through the fabric in 1/24-area increments."""

    STEPS = 24

    def __init__(self, clock_mhz: float = 300.0, fabric: Fabric | None = None):
        self.clock_mhz = clock_mhz
        self.fabric = fabric or Fabric()
        self._current_step = 0

    def set_step(self, step: int) -> float:
        """Configure ``step``/24 of the area to toggle; returns VCCINT watts."""
        if not 0 <= step <= self.STEPS:
            raise ValueError(f"step must be 0..{self.STEPS}")
        if "burn" in self.fabric.regions:
            self.fabric.release("burn")
        self._current_step = step
        if step > 0:
            area = FabricResources(
                luts=XCVU9P.luts * step // self.STEPS,
                ffs=XCVU9P.ffs * step // self.STEPS,
            )
            self.fabric.allocate("burn", area, toggle_rate=1.0)
        return self.vccint_watts()

    def vccint_watts(self) -> float:
        """Core-rail draw at the current step (static + dynamic)."""
        return self.fabric.total_power_w(self.clock_mhz)

    def step_for_elapsed(self, elapsed_s: float, phase_duration_s: float) -> int:
        """Which 1/24 step applies at ``elapsed_s`` into the phase."""
        if phase_duration_s <= 0:
            raise ValueError("phase duration must be positive")
        step = int(elapsed_s / phase_duration_s * self.STEPS) + 1
        return min(step, self.STEPS)


def apply_fpga_burn(loads: LoadBook, burn: FpgaPowerBurn, step: int) -> None:
    loads.set_demand("VCCINT", burn.set_step(step))


def fpga_idle_shell_watts(clock_mhz: float = 300.0) -> float:
    """VCCINT draw with just the shell configured."""
    from ..fpga.bitstream import eci_shell_bitstream

    fabric = Fabric()
    shell = eci_shell_bitstream(clock_mhz)
    fabric.allocate("shell", shell.resources, toggle_rate=0.10)
    return fabric.total_power_w(clock_mhz)
