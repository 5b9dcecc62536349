"""The assembled Enzian machine: every subsystem wired together.

This is the top of the public API: one object owning the BMC (power
manager, telemetry, consoles), the boot orchestration, the ThunderX-1
SoC model, the FPGA fabric with the Coyote shell, the partitioned
address space, and the ECI performance models -- the software twin of
Figure 4's block diagram.

A machine is built from a :class:`repro.config.PlatformConfig` tree
(one validated root covering every subsystem), usually via a named
preset::

    machine = EnzianMachine.from_preset("bringup_4lane")
"""

from __future__ import annotations

from typing import Optional

from ..bmc import ConsoleMux, Phase, PowerManager, TelemetryService
from ..boot import BootOrchestrator, BootTimeline
from ..config import PlatformConfig, preset
from ..cpu import ThunderXSoC
from ..faults import FaultInjector
from ..fpga import CoyoteShell, Fabric
from ..interconnect import EciModel
from ..memory import PhysicalAddressSpace, enzian_address_map
from ..apps.stress import (
    FpgaPowerBurn,
    apply_cpu_phase,
    apply_fpga_burn,
    clear_cpu_load,
    fpga_idle_shell_watts,
)


class EnzianMachine:
    """One Enzian board, from PSU to Linux."""

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        obs=None,
    ):
        if config is None:
            config = preset("full")
        self.config: PlatformConfig = config
        self.obs = obs
        self.power = PowerManager.from_config(config, obs=obs)
        self.consoles = ConsoleMux()
        recovery = config.faults.recovery
        self.boot = BootOrchestrator(
            self.power,
            consoles=self.consoles,
            max_stage_retries=recovery.max_stage_retries,
            stage_timeout_s=recovery.stage_timeout_s,
            obs=obs,
        )
        self.soc = ThunderXSoC.from_config(config)
        self.fabric = Fabric.from_config(config)
        self.shell: Optional[CoyoteShell] = None
        self.address_space: PhysicalAddressSpace = enzian_address_map(
            config.memory.cpu_dram.capacity_gib,
            config.memory.fpga_dram.capacity_gib,
        )
        self.eci = EciModel.from_config(config)
        #: Armed only when the config carries fault events -- an empty
        #: plan leaves every hook None (the zero-cost-off contract).
        self.injector: Optional[FaultInjector] = None
        if config.faults.enabled:
            self.injector = FaultInjector(config.faults, obs=obs)
            self.injector.arm_control_plane(self.power, boot=self.boot)
        #: Supervision follows the same contract: with ``health.enabled``
        #: False (the default) no supervisor exists and every health
        #: hook on power/boot/telemetry stays None.
        self.supervisor = None
        if config.health.enabled:
            from ..health import HealthSupervisor

            self.supervisor = HealthSupervisor(config.health, obs=obs)
            self.supervisor.arm_power(self.power)
            self.supervisor.arm_boot(self.boot)

    @classmethod
    def from_preset(cls, name: str) -> "EnzianMachine":
        """Build a machine from a named configuration preset."""
        return cls(preset(name))

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # Scoped to the board's *control plane*: power-rail state, the RNG
    # the supervisor jitters with, and every health state machine and
    # breaker the supervisor owns.  The data-plane models (SoC, fabric,
    # ECI, address map) are pure functions of the config tree and carry
    # no mutable run state worth capturing here.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        from ..snap.protocol import tagged

        state: dict = {"power": tagged(self.power)}
        if self.supervisor is not None:
            version, internal, gauss_next = self.supervisor.rng.getstate()
            state["supervisor"] = {
                "rng": [version, list(internal), gauss_next],
                "subsystems": {
                    name: tagged(machine)
                    for name, machine in sorted(self.supervisor.subsystems.items())
                },
                "breakers": {
                    name: tagged(breaker)
                    for name, breaker in sorted(self.supervisor.breakers.items())
                },
            }
        return state

    def restore_state(self, state: dict) -> None:
        from ..snap.protocol import SnapshotError, restore

        restore(self.power, state["power"])
        supervisor_state = state.get("supervisor")
        if supervisor_state is None:
            return
        if self.supervisor is None:
            raise SnapshotError(
                "snapshot carries supervisor state but health is disabled "
                "in this machine's config"
            )
        version, internal, gauss_next = supervisor_state["rng"]
        self.supervisor.rng.setstate((version, tuple(internal), gauss_next))
        for name, tag in supervisor_state["subsystems"].items():
            restore(self.supervisor.health_of(name), tag)
        for name, tag in supervisor_state["breakers"].items():
            breaker = self.supervisor.breakers.get(name)
            if breaker is None:
                raise SnapshotError(
                    f"snapshot carries breaker {name!r} this machine lacks"
                )
            restore(breaker, tag)

    # -- lifecycle ---------------------------------------------------------

    def power_on(self) -> BootTimeline:
        """Full §4.4 sequence; instantiates the shell once ECI is up."""
        timeline = self.boot.power_on_to_linux()
        self.shell = CoyoteShell.from_config(self.config, fabric=self.fabric)
        return timeline

    @property
    def running(self) -> bool:
        return self.boot.linux_running

    def reinit_boot(self) -> BootOrchestrator:
        """BMC re-sequence: rebuild the boot orchestrator from scratch.

        The big hammer of the recovery ladder -- equivalent to the BMC
        rebooting itself and re-running §4.4.  Power manager, consoles,
        and injector/supervisor arming all carry over; boot state
        (timeline, BDK, firmware chain) starts fresh.
        """
        recovery = self.config.faults.recovery
        self.boot = BootOrchestrator(
            self.power,
            consoles=self.consoles,
            max_stage_retries=recovery.max_stage_retries,
            stage_timeout_s=recovery.stage_timeout_s,
            obs=self.obs,
        )
        if self.injector is not None:
            self.injector.arm_control_plane(self.power, boot=self.boot)
        if self.supervisor is not None:
            self.supervisor.arm_boot(self.boot)
        return self.boot

    def telemetry(self, sample_period_ms: Optional[float] = None) -> TelemetryService:
        if sample_period_ms is None:
            sample_period_ms = self.config.bmc.telemetry_sample_period_ms
        service = TelemetryService(
            self.power, sample_period_ms=sample_period_ms, obs=self.obs
        )
        if self.injector is not None:
            self.injector.arm_control_plane(self.power, telemetry=service)
        if self.supervisor is not None:
            self.supervisor.arm_telemetry(service)
        return service


def figure12_phases(machine: EnzianMachine) -> list[Phase]:
    """The scripted boot + diagnostic + stress workload of Figure 12.

    Phase structure and durations follow the figure's annotations: idle,
    FPGA on/prog/idle, CPU on (with its power spike), the BDK DRAM
    check, data- and address-bus tests, two memtests, CPU off, the FPGA
    power burn in 1/24-area steps, FPGA off, idle.
    """
    power = machine.power
    loads = power.loads
    levels = machine.config.apps.cpu_load
    clock_mhz = machine.config.fpga.clock_mhz
    burn = FpgaPowerBurn(clock_mhz=clock_mhz)
    shell_idle_w = fpga_idle_shell_watts(clock_mhz)

    def cpu_on():
        power.cpu_power_up()

    def cpu_inrush(elapsed_s: float) -> None:
        # The power spike as 48 cores come out of reset, then idle.
        if elapsed_s < 1.0:
            loads.set_demand("VDD_CORE", 110.0)
        else:
            apply_cpu_phase(loads, levels.idle_w, dram_active=False, levels=levels)

    def cpu_off():
        clear_cpu_load(loads)
        power.cpu_power_down()

    def fpga_prog():
        loads.set_demand("VCCINT", 12.0)  # configuration current

    def fpga_shell_idle():
        loads.set_demand("VCCINT", shell_idle_w)

    def fpga_burn_during(elapsed_s: float) -> None:
        step = burn.step_for_elapsed(elapsed_s, 48.0)
        apply_fpga_burn(loads, burn, step)

    def fpga_off():
        loads.set_demand("VCCINT", 0.0)
        power.fpga_power_down()

    def make_cpu_phase(watts, dram_active=True):
        return lambda: apply_cpu_phase(loads, watts, dram_active, levels=levels)

    return [
        Phase("idle-start", 10.0, action=power.common_power_up),
        Phase("fpga-on", 8.0, action=power.fpga_power_up),
        Phase("fpga-prog", 8.0, action=fpga_prog),
        Phase("fpga-idle", 8.0, action=fpga_shell_idle),
        Phase("cpu-on", 6.0, action=cpu_on, during=cpu_inrush),
        Phase("bdk-dram-check", 14.0, action=make_cpu_phase(levels.bdk_dram_check_w)),
        Phase("data-bus-test", 10.0, action=make_cpu_phase(levels.bus_test_w)),
        Phase("address-bus-test", 10.0, action=make_cpu_phase(levels.bus_test_w)),
        Phase(
            "memtest-marching-rows",
            40.0,
            action=make_cpu_phase(levels.memtest_marching_w),
        ),
        Phase("memtest-random", 40.0, action=make_cpu_phase(levels.memtest_random_w)),
        Phase("cpu-off", 8.0, action=cpu_off),
        Phase("fpga-power-burn", 48.0, during=fpga_burn_during),
        Phase("fpga-off", 8.0, action=fpga_off),
        Phase("idle-end", 10.0),
    ]


def run_figure12(
    machine: Optional[EnzianMachine] = None, sample_period_ms: float = 20.0
) -> TelemetryService:
    """Execute the Figure 12 scenario; returns the loaded telemetry."""
    machine = machine or EnzianMachine()
    telemetry = machine.telemetry(sample_period_ms)
    telemetry.run_phases(figure12_phases(machine))
    return telemetry
