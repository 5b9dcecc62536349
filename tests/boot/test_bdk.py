"""Tests for the BDK: the DRAM check and ECI bring-up."""

import pytest

from repro.boot import Bdk, EciLinkState, SimulatedDram


def make_bdk(size=4096):
    return Bdk(SimulatedDram(size))


def test_healthy_dram_passes_everything():
    bdk = make_bdk()
    assert bdk.dram_check().passed
    assert bdk.all_passed()


def test_results_have_durations():
    bdk = make_bdk()
    bdk.dram_check()
    result = bdk.results[-1]
    assert result.duration_s > 0


def test_dram_bounds_checked():
    dram = SimulatedDram(64)
    with pytest.raises(IndexError):
        dram.read(64)
    with pytest.raises(ValueError):
        SimulatedDram(4)


def test_eci_lane_configurations():
    link = EciLinkState()
    link.configure(lanes=4, speed_gbps=10.0)  # the bring-up configuration
    assert not link.trained
    with pytest.raises(ValueError):
        link.configure(lanes=5, speed_gbps=10.0)
    with pytest.raises(ValueError):
        link.configure(lanes=4, speed_gbps=20.0)


def test_eci_training_requires_remote_shell():
    bdk = make_bdk()
    assert not bdk.bring_up_eci(fpga_shell_ready=False)
    assert bdk.eci.bandwidth_gbps == 0.0
    assert bdk.bring_up_eci(fpga_shell_ready=True)
    assert bdk.eci.bandwidth_gbps == pytest.approx(240.0)


def test_eci_degraded_bandwidth():
    bdk = make_bdk()
    bdk.bring_up_eci(fpga_shell_ready=True, lanes=4, speed_gbps=5.0)
    assert bdk.eci.bandwidth_gbps == pytest.approx(20.0)


def test_console_logging():
    from repro.bmc.console import Uart

    uart = Uart("cpu0")
    bdk = Bdk(SimulatedDram(1024), console=uart)
    bdk.dram_check()
    assert any("dram_check" in line for line in uart.history())
