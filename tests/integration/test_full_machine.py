"""Integration tests spanning subsystems: boot, workloads, telemetry."""

import numpy as np
import pytest

from repro.platform import EnzianMachine, run_figure12


def test_boot_then_load_afu_then_measure():
    """Boot the machine, load a GBDT AFU into a shell slot, run
    inference, and read power through the BMC -- the whole stack."""
    from repro.apps.gbdt import FIGURE9_PLATFORMS, GbdtAccelerator
    from repro.apps.gbdt.model import GradientBoostedEnsemble

    machine = EnzianMachine()
    machine.power_on()
    assert machine.running

    rng = np.random.default_rng(0)
    features = rng.uniform(-1, 1, (200, 4))
    targets = features[:, 0] - features[:, 1]
    ensemble = GradientBoostedEnsemble(n_trees=4).fit(features, targets)
    accel = GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=1)
    load_time = machine.shell.load_afu(0, accel)
    assert load_time > 0
    assert np.array_equal(accel.infer(features), ensemble.predict(features))

    # The BMC can still read every rail.
    report = machine.power.print_current_all()
    assert "VCCINT" in report


def test_boot_failure_on_regulator_fault():
    """A latched regulator fault aborts the CPU bring-up cleanly."""
    from repro.bmc import PowerManagerError
    from repro.bmc.pmbus import StatusBit

    machine = EnzianMachine()
    machine.power.common_power_up()
    # Sabotage: trip and latch the core regulator before bring-up.
    core = machine.power.regulators["VDD_CORE"]
    core._trip(StatusBit.IOUT_OC)
    with pytest.raises(PowerManagerError):
        machine.power.cpu_power_up()
    # Clearing faults and retrying recovers.
    machine.power.clear_faults("VDD_CORE")
    machine.power.cpu_power_up()
    assert machine.power.regulators["VDD_CORE"].live


def test_degraded_eci_lane_configuration_end_to_end():
    """Boot with 4 lanes (the bring-up configuration) and confirm the
    transfer model sees proportionally less bandwidth."""
    from repro.eci import EciLinkParams, simulate_transfer

    machine = EnzianMachine()
    machine.boot.bmc_boot()
    machine.boot.common_power_up()
    machine.boot.fpga_power_and_program()
    machine.boot.cpu_power_up()
    assert machine.boot.bdk.bring_up_eci(fpga_shell_ready=True, lanes=4)
    assert machine.boot.bdk.eci.bandwidth_gbps == pytest.approx(40.0)
    degraded = simulate_transfer(
        1 << 20, "write", link=EciLinkParams(lanes_per_link=4)
    )
    full = simulate_transfer(1 << 20, "write")
    assert degraded.throughput_gibps < full.throughput_gibps / 2


def test_figure12_energy_dominated_by_stress_phases():
    telemetry = run_figure12(sample_period_ms=100.0)
    cpu = telemetry.trace("CPU")
    fpga = telemetry.trace("FPGA")
    total = cpu.energy_j() + fpga.energy_j()
    t0, t1 = telemetry.phase_window("memtest-marching-rows")
    t2, t3 = telemetry.phase_window("fpga-power-burn")
    stress = (
        cpu.mean_watts(t0, t1) * (t1 - t0)
        + fpga.mean_watts(t2, t3) * (t3 - t2)
    )
    assert stress > 0.4 * total


def test_monitor_afu_watches_protocol_events():
    """rtverify x eci: a monitor checks an ordering property over events
    produced by real coherence traffic."""
    from repro.eci import (
        CacheAgent,
        HomeAgent,
        InstantTransport,
        )
    from repro.rtverify import Monitor, Once, atom
    from repro.sim import Kernel

    kernel = Kernel()
    transport = InstantTransport(kernel, latency_ns=10.0)
    home = HomeAgent(kernel, 0, transport)
    cpu = CacheAgent(kernel, 1, transport, home_for=lambda a: 0)

    events = []
    transport.observers.append(
        lambda now, m: events.append({m.mtype.name.lower()})
    )

    def workload():
        yield from cpu.write(0x0, bytes(128))
        yield from cpu.flush(0x0)

    kernel.run_process(workload())
    kernel.run()

    # Invariant: a dirty victim (vicd) only after an exclusive grant (pemd).
    invariant = atom("vicd").implies(Once(atom("pemd")))
    monitor = Monitor(invariant)
    monitor.run(events)
    assert not monitor.ever_violated
    # And the trace really contained both events.
    flat = set().union(*events)
    assert "vicd" in flat and "pemd" in flat


def test_disaggregated_memory_over_bridged_boards():
    """cluster x eci: a client on board B caches pages homed on board A's
    FPGA DRAM through the coherence bridge, coherently."""
    from repro.cluster import bridge_domains
    from repro.eci import CACHE_LINE_BYTES, CacheAgent, HomeAgent, InstantTransport
    from repro.net import two_hosts_via_switch
    from repro.sim import Kernel

    kernel = Kernel()
    ta = InstantTransport(kernel, latency_ns=20.0)
    tb = InstantTransport(kernel, latency_ns=20.0)
    home = HomeAgent(kernel, 0, ta)
    local_client = CacheAgent(kernel, 1, ta, home_for=lambda a: 0)
    remote_client = CacheAgent(kernel, 2, tb, home_for=lambda a: 0)
    _, la, lb = two_hosts_via_switch(kernel)
    bridge_domains(kernel, ta, tb, la, lb, nodes_a=[0, 1], nodes_b=[2])

    page = bytes([7]) * CACHE_LINE_BYTES

    def proc():
        yield from local_client.write(0x0, page)
        remote_view = yield from remote_client.read(0x0)
        assert remote_view == page
        # Remote modifies; local must observe the new version.
        yield from remote_client.write(0x0, bytes([9]) * CACHE_LINE_BYTES)
        local_view = yield from local_client.read(0x0)
        return local_view

    assert kernel.run_process(proc()) == bytes([9]) * CACHE_LINE_BYTES
