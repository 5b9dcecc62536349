"""The full Enzian power-on sequence (§4.4).

"The BMC powers up and boots, and then turns on power and clock to the
rest of the system including FPGA and the CPU, which is held in reset.
It then loads the FPGA with an initial bitstream [...] It then takes
the CPU out of reset."

:class:`BootOrchestrator` drives that choreography against the BMC
power manager, the FPGA shell, the BDK, and the firmware chain, and
enforces the ordering hazard the paper highlights: ECI training fails
unless the shell bitstream (with the ECI lower layers) is already
loaded when the CPU comes out of reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..bmc.console import ConsoleMux
from ..bmc.power_manager import PowerManager
from ..fpga.bitstream import Bitstream, ConfigPort, eci_shell_bitstream
from .bdk import Bdk, SimulatedDram
from .devicetree import enzian_topology, render_dts
from .firmware import BootError, BootStage, FirmwareChain, standard_stages


@dataclass
class BootTimeline:
    """Named milestones with timestamps (seconds since PSU plug-in)."""

    milestones: List[tuple[float, str]] = field(default_factory=list)

    def mark(self, t_s: float, name: str) -> None:
        self.milestones.append((t_s, name))

    def time_of(self, name: str) -> float:
        for t_s, milestone in self.milestones:
            if milestone == name:
                return t_s
        raise KeyError(f"no milestone {name!r}")

    def names(self) -> List[str]:
        return [name for _, name in self.milestones]


class BootOrchestrator:
    """Drives the machine from PSU-on to a running Linux."""

    def __init__(
        self,
        power: PowerManager,
        consoles: Optional[ConsoleMux] = None,
        dram_bytes: int = 1 << 16,  # simulated test-DRAM size (kept small)
        config_port: Optional[ConfigPort] = None,
        max_stage_retries: int = 0,
        stage_timeout_s: float = 5.0,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        if max_stage_retries < 0:
            raise ValueError("max_stage_retries must be non-negative")
        # Written so that NaN fails too: a hung stage advances the board
        # clock by this much.
        if not 0 < stage_timeout_s < math.inf:
            raise ValueError("stage_timeout_s must be positive and finite")
        self.power = power
        self.consoles = consoles or ConsoleMux()
        self.dram = SimulatedDram(dram_bytes)
        self.bdk = Bdk(self.dram, console=self.consoles.uarts["cpu0"])
        self.config_port = config_port or ConfigPort()
        self.fpga_bitstream: Optional[Bitstream] = None
        self.timeline = BootTimeline()
        self.linux_running = False
        #: Recovery policy for firmware stages (0 = historical fail-fast).
        self.max_stage_retries = max_stage_retries
        self.stage_timeout_s = stage_timeout_s
        #: Fault-injection hook: returns 'hang' | 'fail' | None per attempt.
        self.fault_hook: Optional[Callable[[str], Optional[str]]] = None
        #: Health supervision (set by HealthSupervisor.arm_boot): a
        #: state machine tracking the boot chain, and a board-clock
        #: heartbeat beaten at every milestone.  None costs one
        #: comparison per milestone.
        self.health = None
        self.heartbeat = None
        self.obs = obs if obs is not None else NULL_REGISTRY

    @property
    def clock(self):
        return self.power.clock

    def _mark(self, name: str) -> None:
        self.timeline.mark(self.clock.now_s, name)
        if self.heartbeat is not None:
            self.heartbeat.beat(self.clock.now_s)

    # -- individual steps --------------------------------------------------

    def bmc_boot(self, duration_s: float = 25.0) -> None:
        """The BMC's own Linux boots as soon as standby power exists."""
        self.consoles.uarts["bmc"].emit("OpenBMC booting")
        self.clock.advance(duration_s)
        self._mark("bmc-ready")

    def common_power_up(self) -> None:
        self.power.common_power_up()
        self._mark("common-power")

    def fpga_power_and_program(self, bitstream: Optional[Bitstream] = None) -> None:
        """Power the FPGA domain and load the initial (shell) image."""
        self.power.fpga_power_up()
        self._mark("fpga-power")
        image = bitstream or eci_shell_bitstream()
        load_time = self.config_port.load_time_s(image)
        self.clock.advance(load_time)
        self.fpga_bitstream = image
        self.consoles.uarts["fpga"].emit(f"bitstream {image.name} loaded")
        self._mark("fpga-programmed")

    def cpu_power_up(self) -> None:
        self.power.cpu_power_up()
        self._mark("cpu-power")

    def run_bdk(self, break_at_menu: bool = False) -> bool:
        """BDK diagnostics + ECI bring-up; returns link status.

        ``break_at_menu`` models the artifact workflow's "break the boot
        by pressing B" -- diagnostics run, but the boot chain pauses.
        """
        self.consoles.uarts["cpu0"].emit("BDK boot menu")
        result = self.bdk.dram_check()
        self.clock.advance(result.duration_s)
        self._mark("bdk-dram-check")
        shell_ready = (
            self.fpga_bitstream is not None and self.fpga_bitstream.is_shell
        )
        trained = self.bdk.bring_up_eci(fpga_shell_ready=shell_ready)
        self._mark("eci-" + ("up" if trained else "down"))
        if break_at_menu:
            return trained
        return trained

    def _run_stage(self, chain: FirmwareChain, stage: BootStage) -> None:
        """One firmware stage with hang-timeout and bounded retry.

        A hang burns ``stage_timeout_s`` of board time before the
        watchdog declares the stage dead; hangs and failures alike are
        retried up to ``max_stage_retries`` times before the boot is
        abandoned with the stage's original error.
        """
        attempt = 0
        while True:
            injected = (
                self.fault_hook(stage.name) if self.fault_hook is not None else None
            )
            try:
                if injected == "hang":
                    self.clock.advance(self.stage_timeout_s)
                    if self.obs:
                        self.obs.counter(
                            "boot_stage_hangs_total", {"stage": stage.name}
                        ).inc()
                    raise BootError(
                        f"stage {stage.name!r} hung (watchdog after "
                        f"{self.stage_timeout_s}s)"
                    )
                if injected == "fail":
                    raise BootError(f"stage {stage.name!r} failed (injected)")
                chain.run_stage(stage)
                return
            except BootError:
                attempt += 1
                if attempt > self.max_stage_retries:
                    if self.health is not None:
                        self.health.fail(f"stage {stage.name} abandoned")
                    raise
                if self.health is not None:
                    self.health.degrade(f"stage {stage.name} retrying")
                self.consoles.uarts["cpu0"].emit(
                    f"retrying stage {stage.name} (attempt {attempt + 1})"
                )
                if self.obs:
                    self.obs.counter(
                        "boot_stage_retries_total", {"stage": stage.name}
                    ).inc()

    def boot_to_linux(self) -> None:
        """ATF -> UEFI -> Linux, with the generated device tree."""
        chain = FirmwareChain(self.clock)
        stages = standard_stages(
            eci_trained=lambda: self.bdk.eci.trained,
            dram_ok=lambda: any(
                r.name == "dram_check" and r.passed for r in self.bdk.results
            ),
        )
        for stage in stages:
            self._run_stage(chain, stage)
            self._mark(stage.name)
        topology = enzian_topology()
        self.device_tree = render_dts(topology)
        self.linux_running = True
        if self.health is not None:
            # Stage retries leave the chain DEGRADED; a completed boot
            # means it recovered (no-op when it never degraded).
            self.health.recover("linux running")
        if self.heartbeat is not None:
            self.heartbeat.complete()
        self.consoles.uarts["cpu0"].emit("Ubuntu 20.04 LTS enzian ttyAMA0")

    # -- the whole thing ------------------------------------------------------

    def power_on_to_linux(self) -> BootTimeline:
        """The complete §4.4 sequence in order."""
        self.bmc_boot()
        self.common_power_up()
        self.fpga_power_and_program()
        self.cpu_power_up()
        if not self.run_bdk():
            if self.health is not None:
                self.health.fail("ECI link failed to train")
            raise BootError("ECI link failed to train")
        self.boot_to_linux()
        return self.timeline
