"""Degradation policies: lane renegotiation and power throttling."""

import pytest

from repro.bmc import PowerManager, RailFaultError
from repro.bmc.pmbus import StatusBit
from repro.eci.link import EciLinkParams, EciLinkTransport
from repro.health import (
    EciDegradationPolicy,
    HealthState,
    HealthStateMachine,
    PowerDegradationPolicy,
)
from repro.health.policy import (
    CRC_STORM_THRESHOLD,
    CRC_WINDOW_NS,
    MAX_RENEGOTIATIONS,
    MAX_THROTTLE_EVENTS,
    MIN_LANES,
    RELIEF_FACTOR,
    THROTTLE_FRACTION,
)
from repro.obs import MetricsRegistry
from repro.sim import Kernel


# -- ECI: CRC storms renegotiate to reduced lanes ----------------------------


def _eci_policy(kernel, obs=None):
    transport = EciLinkTransport(kernel, params=EciLinkParams())
    transport.fault_rate = 1e-3
    health = HealthStateMachine("eci.link", obs=obs, clock=lambda: kernel.now)
    policy = EciDegradationPolicy(transport, kernel, health, obs=obs)
    return transport, policy, health


def _storms(kernel, policy, count):
    """``count`` storms on link 0, each ``CRC_STORM_THRESHOLD`` errors
    1 ns apart, separated by gaps long enough to clear the window."""
    t = 0.0
    for _ in range(count):
        for _ in range(CRC_STORM_THRESHOLD):
            kernel.call_at(t, lambda _: policy.on_crc_error(0))
            t += 1.0
        t += 2 * CRC_WINDOW_NS


def test_crc_storm_renegotiates_lanes_and_scales_bandwidth():
    kernel = Kernel(seed=3)
    obs = MetricsRegistry()
    transport, policy, health = _eci_policy(kernel, obs=obs)
    full_rate = transport.link_rates_bytes_per_ns()[0]
    for i in range(CRC_STORM_THRESHOLD):
        kernel.call_at(10.0 * i, lambda _, link=0: policy.on_crc_error(link))
    kernel.run()
    assert transport.lanes[0] == 6               # 12 // 2
    assert transport.lanes[1] == 12              # other link untouched
    # The bandwidth model tracks the surviving width.
    assert transport.link_rates_bytes_per_ns()[0] == pytest.approx(
        full_rate / 2
    )
    # Dropping the marginal lanes removed most of the error source.
    assert transport.fault_rate == pytest.approx(1e-3 * RELIEF_FACTOR)
    assert health.state is HealthState.DEGRADED
    assert policy.events == [(10.0 * (CRC_STORM_THRESHOLD - 1), 0, 6)]
    assert (
        obs.counter(
            "health_lane_renegotiations_total", {"link": "0"}
        ).value
        == 1
    )
    assert obs.gauge("health_link_lanes", {"link": "0"}).value == 6


def test_sparse_errors_never_fill_the_window():
    kernel = Kernel(seed=3)
    transport, policy, health = _eci_policy(kernel)
    # A storm's worth of errors, but each two windows apart.
    for i in range(CRC_STORM_THRESHOLD):
        kernel.call_at(2 * CRC_WINDOW_NS * i, lambda _: policy.on_crc_error(0))
    kernel.run()
    assert transport.lanes[0] == 12
    assert health.healthy


def test_renegotiation_floors_at_min_lanes():
    kernel = Kernel(seed=3)
    transport, policy, health = _eci_policy(kernel)
    _storms(kernel, policy, MAX_RENEGOTIATIONS)
    kernel.run()
    assert MIN_LANES == 4                        # §4.4's bring-up width
    assert [lanes for _, _, lanes in policy.events] == [6, 4, 4]
    assert transport.lanes[0] == MIN_LANES
    assert health.state is HealthState.DEGRADED


def test_persistent_storm_exhausts_budget_and_fails():
    kernel = Kernel(seed=3)
    transport, policy, health = _eci_policy(kernel)
    _storms(kernel, policy, MAX_RENEGOTIATIONS + 1)  # one past the budget
    kernel.run()
    assert health.state is HealthState.FAILED
    assert len(policy.events) == MAX_RENEGOTIATIONS
    assert transport.lanes[0] == MIN_LANES       # no further renegotiation


# -- Power: brown-out / OTP throttle instead of shutdown ---------------------


def _power_policy(obs=None):
    manager = PowerManager(obs=obs)
    health = HealthStateMachine(
        "power", obs=obs, clock=lambda: manager.clock.now_s
    )
    policy = PowerDegradationPolicy(manager, health, obs=obs)
    return manager, policy, health


def test_brownout_during_bring_up_is_absorbed_into_throttle():
    obs = MetricsRegistry()
    manager, policy, health = _power_policy(obs=obs)
    tripped = []

    def brownout_once(event, rail):
        if rail == "VDD_CORE" and not tripped:
            tripped.append(rail)
            manager.regulators[rail]._trip(StatusBit.VIN_UV)

    manager.fault_hook = brownout_once
    manager.common_power_up()
    manager.cpu_power_up()                       # absorbed, not raised
    assert manager.regulators["VDD_CORE"].live
    assert manager.throttled
    assert manager.loads.throttle == THROTTLE_FRACTION
    assert health.state is HealthState.DEGRADED
    assert policy.throttle_events == 1
    assert (
        obs.counter("power_throttle_events_total", {"rail": "VDD_CORE"}).value
        == 1
    )
    # The absorbed status was decoded into the policy's event log.
    assert policy.events[0][1] == "VDD_CORE"
    assert "UVP" in policy.events[0][2] or "VIN" in policy.events[0][2]


def test_otp_is_absorbable_too():
    manager, policy, health = _power_policy()
    manager.fault_hook = lambda event, rail: (
        manager.regulators["3V3_MAIN"]._trip(StatusBit.TEMPERATURE)
        if rail == "3V3_MAIN" and not policy.events
        else None
    )
    manager.common_power_up()
    assert manager.throttled
    assert health.state is HealthState.DEGRADED


def test_overcurrent_stays_fatal():
    manager, policy, health = _power_policy()
    manager.fault_hook = lambda event, rail: (
        manager.regulators["VCCINT"]._trip(StatusBit.IOUT_OC)
        if rail == "VCCINT"
        else None
    )
    manager.common_power_up()
    with pytest.raises(RailFaultError):
        manager.fpga_power_up()
    assert not manager.throttled
    assert policy.throttle_events == 0
    assert health.healthy                        # policy never engaged


def test_throttle_budget_exhaustion_fails_the_subsystem():
    manager, policy, health = _power_policy()
    manager.fault_hook = lambda event, rail: manager.regulators[rail]._trip(
        StatusBit.VIN_UV
    )
    # Every rail browns out at its settle point: MAX_THROTTLE_EVENTS
    # absorptions fit the budget, the next pushes power to FAILED and
    # the fault surfaces.
    with pytest.raises(RailFaultError):
        manager.common_power_up()
    assert policy.throttle_events == MAX_THROTTLE_EVENTS
    assert health.state is HealthState.FAILED


def test_throttle_compose_takes_the_minimum_and_exit_restores():
    manager, _, _ = _power_policy()
    manager.enter_throttle(0.8)
    manager.enter_throttle(0.5)
    manager.enter_throttle(0.9)                  # cannot raise the cap
    assert manager.loads.throttle == 0.5
    manager.exit_throttle()
    assert manager.loads.throttle == 1.0
    assert not manager.throttled
