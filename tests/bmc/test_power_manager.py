"""Tests for regulators and the power manager firmware."""

import math

import pytest

from repro.bmc import (
    BoardClock,
    CPU_RAILS,
    COMMON_RAILS,
    FPGA_RAILS,
    LoadBook,
    PowerManager,
    PowerRail,
    RegulatorParams,
    StatusBit,
    VoltageRegulator,
)


def make_regulator(**kwargs):
    clock = BoardClock()
    loads = LoadBook()
    regulator = VoltageRegulator(
        0x20,
        PowerRail("TEST", 1.0, 10.0, idle_w=0.5),
        clock,
        loads,
        **kwargs,
    )
    return regulator, clock, loads


def test_regulator_soft_start_ramp():
    regulator, clock, _ = make_regulator(params=RegulatorParams(soft_start_ms=10.0))
    regulator.enable()
    assert regulator.vout == 0.0
    clock.advance(0.005)
    assert regulator.vout == pytest.approx(0.5)
    clock.advance(0.005)
    assert regulator.vout == pytest.approx(1.0)
    assert regulator.live


def test_regulator_load_current():
    regulator, clock, loads = make_regulator()
    regulator.enable()
    clock.advance(0.1)
    idle_current = regulator.iout
    loads.set_demand("TEST", 5.0)
    assert regulator.iout == pytest.approx(idle_current + 5.0)


def test_regulator_disable_drops_rail():
    regulator, clock, _ = make_regulator()
    regulator.enable()
    clock.advance(0.1)
    regulator.disable()
    assert regulator.vout == 0.0
    assert regulator.status & int(StatusBit.OFF)


def test_overcurrent_trips_and_latches():
    regulator, clock, loads = make_regulator()
    regulator.enable()
    clock.advance(0.1)
    loads.set_demand("TEST", 100.0)  # 100 A at 1 V >> 12.5 A OCP
    regulator.check_protection()
    assert regulator.faulted
    assert regulator.status & int(StatusBit.IOUT_OC)
    assert regulator.vout == 0.0
    regulator.enable()  # latched: enable has no effect
    assert not regulator.enabled
    regulator.clear_faults()
    loads.set_demand("TEST", 0.0)
    regulator.enable()
    clock.advance(0.1)
    assert regulator.live


def test_short_circuit_on_bad_sequencing():
    """Enabling a rail whose prerequisite is down shorts it (§4.2)."""
    clock = BoardClock()
    loads = LoadBook()
    registry = {}
    upstream = VoltageRegulator(
        0x20, PowerRail("UP", 1.0, 10.0), clock, loads,
        rail_lookup=registry.get,
    )
    downstream = VoltageRegulator(
        0x21, PowerRail("DOWN", 1.0, 10.0), clock, loads,
        requires=("UP",), rail_lookup=registry.get,
    )
    registry["UP"] = upstream
    registry["DOWN"] = downstream
    downstream.enable()  # UP is not live
    assert downstream.short_circuited
    assert downstream.faulted


def test_correct_sequencing_avoids_short():
    clock = BoardClock()
    loads = LoadBook()
    registry = {}
    upstream = VoltageRegulator(
        0x20, PowerRail("UP", 1.0, 10.0), clock, loads, rail_lookup=registry.get
    )
    downstream = VoltageRegulator(
        0x21, PowerRail("DOWN", 1.0, 10.0), clock, loads,
        requires=("UP",), rail_lookup=registry.get,
    )
    registry.update(UP=upstream, DOWN=downstream)
    upstream.enable()
    clock.advance(0.1)
    downstream.enable()
    clock.advance(0.1)
    assert not downstream.short_circuited
    assert downstream.live


def test_temperature_rises_with_load():
    regulator, clock, loads = make_regulator()
    regulator.enable()
    clock.advance(0.1)
    cold = regulator.temperature_c
    loads.set_demand("TEST", 8.0)
    assert regulator.temperature_c > cold


def test_power_manager_full_bring_up():
    manager = PowerManager()
    manager.common_power_up()
    assert manager.rails_live(COMMON_RAILS)
    manager.fpga_power_up()
    assert manager.rails_live(FPGA_RAILS)
    manager.cpu_power_up()
    assert manager.rails_live(CPU_RAILS)
    assert manager.clock.now_s > 0.1  # settle times accumulated


def test_power_manager_reads_via_pmbus():
    manager = PowerManager()
    manager.common_power_up()
    vout = manager.read_vout("12V_MAIN")
    assert vout == pytest.approx(12.0, abs=0.01)
    assert manager.read_iout("12V_MAIN") > 0
    assert manager.read_temperature("12V_MAIN") > 30.0


def test_power_manager_power_down_reverses():
    manager = PowerManager()
    manager.common_power_up()
    manager.fpga_power_up()
    manager.cpu_power_up()
    manager.power_down()
    assert not manager.rails_live(CPU_RAILS)
    assert not manager.rails_live(COMMON_RAILS)
    on_events = [e for _, e in manager.events if e.startswith("on:")]
    off_events = [e for _, e in manager.events if e.startswith("off:")]
    assert len(on_events) == len(off_events)


def test_cpu_power_cycle():
    manager = PowerManager()
    manager.common_power_up()
    manager.cpu_power_up()
    manager.cpu_power_down()
    assert not manager.rails_live(CPU_RAILS)
    assert manager.rails_live(COMMON_RAILS)
    manager.cpu_power_up()
    assert manager.rails_live(CPU_RAILS)


def test_cpu_before_common_shorts():
    """Skipping common_power_up shorts the CPU domain."""
    from repro.bmc import PowerManagerError

    manager = PowerManager()
    with pytest.raises(PowerManagerError):
        manager.cpu_power_up()
    assert manager.regulators["VDD_CORE"].short_circuited


def test_print_current_all_format():
    manager = PowerManager()
    manager.common_power_up()
    text = manager.print_current_all()
    lines = text.splitlines()
    assert "rail" in lines[0]
    assert len(lines) == 1 + len(manager.regulators)
    assert any("12V_MAIN" in line and "on" in line for line in lines)
    assert any("VDD_CORE" in line and "OFF" in line for line in lines)


def test_loadbook_validation():
    loads = LoadBook()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="demand"):
            loads.set_demand("x", bad)
    loads.set_demand("x", 5.0)
    assert loads.demand_w("x") == 5.0
    loads.clear()
    assert loads.demand_w("x") == 0.0


def test_board_clock_monotonic():
    clock = BoardClock()
    clock.advance(1.0)
    with pytest.raises(ValueError):
        clock.advance(-0.1)


# -- fault path: trips during bring-up, clearing, status decoding ------------


def test_rail_fault_during_bring_up_raises_typed_error():
    """A rail that trips at its settle point surfaces as RailFaultError."""
    from repro.bmc import RailFaultError
    from repro.bmc.pmbus import StatusBit

    manager = PowerManager()
    manager.fault_hook = lambda event, rail: (
        manager.regulators["VCCINT"]._trip(StatusBit.IOUT_OC)
        if rail == "VCCINT"
        else None
    )
    manager.common_power_up()
    with pytest.raises(RailFaultError) as excinfo:
        manager.fpga_power_up()
    assert excinfo.value.rail == "VCCINT"
    assert excinfo.value.status & int(StatusBit.IOUT_OC)
    assert "OCP" in str(excinfo.value)
    # Earlier rails in the group were enabled before the trip.
    assert manager.regulators["VCCINT"].faulted


def test_clear_faults_via_pmbus_allows_retry():
    from repro.bmc import RailFaultError
    from repro.bmc.pmbus import StatusBit

    manager = PowerManager()
    manager.common_power_up()
    manager.regulators["VDD_CORE"]._trip(StatusBit.TEMPERATURE)
    with pytest.raises(RailFaultError):
        manager.cpu_power_up()
    # CLEAR_FAULTS through the PMBus path resets the latched status.
    manager.clear_faults("VDD_CORE")
    assert manager.read_status("VDD_CORE") & int(StatusBit.TEMPERATURE) == 0
    manager.cpu_power_up()
    assert manager.regulators["VDD_CORE"].live


def test_resequence_recovery_power_cycles_the_group():
    """With a retry budget, a transient trip is recovered automatically."""
    from repro.bmc.pmbus import StatusBit
    from repro.obs import MetricsRegistry

    obs = MetricsRegistry()
    manager = PowerManager(
        max_resequence_attempts=2, resequence_backoff_s=0.5, obs=obs
    )
    fired = []

    def trip_once(event, rail):
        if rail == "VDD_CORE" and not fired:
            fired.append(rail)
            manager.regulators[rail]._trip(StatusBit.VOUT_OV)

    manager.fault_hook = trip_once
    manager.common_power_up()
    t0 = manager.clock.now_s
    manager.cpu_power_up()
    assert manager.regulators["VDD_CORE"].live
    # The backoff advanced the board clock between attempts.
    assert manager.clock.now_s - t0 >= 0.5
    assert obs.counter("bmc_resequences_total").value == 1
    events = [e for _, e in manager.events]
    assert "resequence:1" in events
    # The failed group was shut down in reverse before the retry.
    assert any(e.startswith("off:") for e in events)


def test_decode_status_flags():
    from repro.bmc import decode_status
    from repro.bmc.pmbus import StatusBit

    assert decode_status(0) == "ok"
    assert decode_status(int(StatusBit.IOUT_OC)) == "OCP"
    assert decode_status(int(StatusBit.VOUT_OV)) == "OVP"
    assert decode_status(int(StatusBit.TEMPERATURE)) == "OTP"
    both = int(StatusBit.IOUT_OC) | int(StatusBit.OFF)
    assert decode_status(both) == "OCP|OFF"
    assert decode_status(int(StatusBit.VIN_UV)) == "VIN-UV"


def test_resequence_validation():
    with pytest.raises(ValueError):
        PowerManager(max_resequence_attempts=-1)
    for backoff in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            PowerManager(resequence_backoff_s=backoff)


@pytest.mark.parametrize("dt_s", [math.nan, math.inf])
def test_board_clock_rejects_bad_steps(dt_s):
    clock = BoardClock()
    clock.advance(0.5)
    with pytest.raises(ValueError, match="forward"):
        clock.advance(dt_s)
    assert clock.now_s == 0.5
