"""Tests for the assembled machine and the Figure 12 scenario."""

import pytest

from repro.platform import EnzianMachine, figure12_phases, run_figure12


def test_machine_power_on_reaches_linux():
    machine = EnzianMachine()
    timeline = machine.power_on()
    assert machine.running
    assert machine.shell is not None
    assert machine.shell.eci_ready
    assert "linux" in timeline.names()


def test_machine_config_plumbs_through():
    from repro.config import preset

    machine = EnzianMachine(
        preset("full").with_overrides({"memory.fpga_dram.channel.dimm_gib": 16})
    )
    assert machine.address_space.total_bytes(node=1) == 64 << 30
    assert machine.soc.spec.n_cores == 48


def test_figure12_phase_script_structure():
    phases = figure12_phases(EnzianMachine())
    names = [p.name for p in phases]
    # The figure's annotated order.
    for earlier, later in [
        ("idle-start", "fpga-on"),
        ("fpga-prog", "cpu-on"),
        ("cpu-on", "bdk-dram-check"),
        ("bdk-dram-check", "data-bus-test"),
        ("memtest-marching-rows", "memtest-random"),
        ("memtest-random", "cpu-off"),
        ("cpu-off", "fpga-power-burn"),
        ("fpga-power-burn", "fpga-off"),
    ]:
        assert names.index(earlier) < names.index(later)
    total = sum(p.duration_s for p in phases)
    assert 180.0 <= total <= 300.0  # Figure 12 spans ~250 s


def test_run_figure12_produces_traces():
    telemetry = run_figure12(sample_period_ms=100.0)
    for label in ("CPU", "FPGA", "DRAM0", "DRAM1"):
        trace = telemetry.trace(label)
        assert len(trace.samples) > 100


def test_figure12_cpu_power_shape():
    telemetry = run_figure12(sample_period_ms=100.0)
    cpu = telemetry.trace("CPU")
    # Idle at the start, off at the end.
    t0, t1 = telemetry.phase_window("idle-start")
    assert cpu.mean_watts(t0, t1) == 0.0
    # The power spike at CPU-on exceeds the subsequent idle draw.
    t0, t1 = telemetry.phase_window("cpu-on")
    spike = cpu.peak_watts()
    mem_t0, mem_t1 = telemetry.phase_window("memtest-random")
    memtest = cpu.mean_watts(mem_t0 + 1, mem_t1)
    idle = cpu.mean_watts(t0 + 2.0, t1)
    assert spike > memtest > idle > 0
    # After cpu-off the CPU rail is dead.
    t0, t1 = telemetry.phase_window("fpga-power-burn")
    assert cpu.mean_watts(t0 + 1, t1) == pytest.approx(0.0, abs=0.5)


def test_figure12_fpga_burn_ramps_in_steps():
    telemetry = run_figure12(sample_period_ms=100.0)
    fpga = telemetry.trace("FPGA")
    t0, t1 = telemetry.phase_window("fpga-power-burn")
    quarter = (t1 - t0) / 4
    first = fpga.mean_watts(t0, t0 + quarter)
    last = fpga.mean_watts(t1 - quarter, t1)
    assert last > first * 2
    # Peak burn power is large (the point of the stress test).
    assert fpga.peak_watts() > 100.0


def test_figure12_dram_rails_active_during_memtest():
    telemetry = run_figure12(sample_period_ms=100.0)
    dram = telemetry.trace("DRAM0")
    t0, t1 = telemetry.phase_window("memtest-random")
    active = dram.mean_watts(t0 + 1, t1)
    i0, i1 = telemetry.phase_window("idle-start")
    assert dram.mean_watts(i0, i1) == 0.0
    assert active > 5.0


def test_machine_from_preset_wiring():
    from repro.config import preset

    machine = EnzianMachine.from_preset("bringup_4lane")
    assert machine.config == preset("bringup_4lane")
    assert machine.config.eci.link.lanes_per_link == 4
    assert machine.eci.links_used == 1
    # 4 channels x 16 GiB DIMMs on the debug board.
    assert machine.address_space.total_bytes(node=1) == 64 << 30
    machine.power_on()
    assert machine.shell.clock_mhz == pytest.approx(100.0)


def test_machine_accepts_platform_config_directly():
    from repro.config import preset

    cfg = preset("full").with_overrides({"fpga.clock_mhz": 250.0})
    machine = EnzianMachine(cfg)
    assert machine.config is cfg
    machine.power_on()
    assert machine.shell.clock_mhz == pytest.approx(250.0)
