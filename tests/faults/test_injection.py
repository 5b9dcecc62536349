"""Per-subsystem fault injection and recovery behaviour."""

import math

import pytest

from repro.bmc import PowerManager, RailFaultError
from repro.bmc.telemetry import Phase, TelemetryService
from repro.boot import BootOrchestrator
from repro.boot.firmware import BootError
from repro.eci.link import EciLinkParams, EciLinkTransport
from repro.eci.messages import Message, MessageType
from repro.eci.protocol import ProtocolNode
from repro.faults import FaultInjector, FaultSpec, FaultsConfig
from repro.net.ethernet import EthernetLink, Frame
from repro.obs import MetricsRegistry
from repro.sim import Kernel


class _Sink(ProtocolNode):
    def __init__(self, kernel, node_id, transport):
        super().__init__(kernel, node_id, transport)
        self.received = []

    def receive(self, message):
        self.received.append(message)


def _link_pair(kernel, **params):
    transport = EciLinkTransport(kernel, params=EciLinkParams(**params))
    _Sink(kernel, 0, transport)
    sink = _Sink(kernel, 1, transport)
    return transport, sink


def _burst(kernel, transport, n, spacing_ns=10.0):
    for i in range(n):
        message = Message(MessageType.RLDS, src=0, dst=1, addr=i * 128, txid=i)
        kernel.call_at(i * spacing_ns, lambda _, m=message: transport.send(m))


# -- ECI link layer ----------------------------------------------------------


def test_bit_flip_retransmits_and_delivers():
    kernel = Kernel()
    transport, sink = _link_pair(kernel)
    transport.inject_bit_flips(2)
    _burst(kernel, transport, 5)
    kernel.run()
    assert len(sink.received) == 5
    assert transport.stats["crc_errors"] == 2
    assert transport.stats["retransmits"] == 2
    assert transport.stats["messages_lost"] == 0


def test_retransmit_gives_up_after_retry_limit():
    kernel = Kernel()
    transport, sink = _link_pair(kernel, crc_retry_limit=3)
    transport.fault_rate = 1.0  # every transmission corrupts
    _burst(kernel, transport, 1)
    kernel.run()
    assert len(sink.received) == 0
    assert transport.stats["messages_lost"] == 1
    # Original attempt + 3 retries all failed CRC.
    assert transport.stats["crc_errors"] == 4


def test_credits_conserved_through_crc_storm():
    """Corrupted messages must return their credit (credit reclamation)."""
    kernel = Kernel(seed=5)
    transport, sink = _link_pair(kernel, credits_per_vc=2)
    transport.fault_rate = 0.3
    _burst(kernel, transport, 50, spacing_ns=5.0)
    kernel.run()
    transport.fault_rate = 0.0
    assert len(sink.received) == 50
    assert transport.stats["crc_errors"] > 0
    assert transport.credits_conserved()


def test_lane_drop_degrades_rate_and_retrains():
    kernel = Kernel()
    params = EciLinkParams(policy="fixed", retrain_ns=1_000.0)
    transport = EciLinkTransport(kernel, params=params)
    _Sink(kernel, 0, transport)
    sink = _Sink(kernel, 1, transport)
    message = Message(MessageType.RLDS, src=0, dst=1, addr=0)
    # Healthy link first: measure the full-rate serialization.
    transport.send(message)
    kernel.run()
    t_full = kernel.now

    kernel2 = Kernel()
    transport2 = EciLinkTransport(kernel2, params=params)
    _Sink(kernel2, 0, transport2)
    _Sink(kernel2, 1, transport2)
    transport2.drop_lanes(0, 4)
    transport2.send(message)
    kernel2.run()
    # Retraining blocks the start, then 4/12 lanes serialize 3x slower.
    assert kernel2.now > t_full + params.retrain_ns - 1.0
    assert transport2.lanes[0] == 4
    assert transport2.stats["retrains"] == 1
    transport2.restore_lanes(0)
    assert transport2.lanes[0] == params.lanes_per_link
    assert sink is not None


def test_lane_drop_validation():
    kernel = Kernel()
    transport, _ = _link_pair(kernel)
    with pytest.raises(ValueError):
        transport.drop_lanes(9, 4)
    with pytest.raises(ValueError):
        transport.drop_lanes(0, 0)
    with pytest.raises(ValueError):
        transport.inject_bit_flips(0)


def test_injector_schedules_eci_plan():
    obs = MetricsRegistry()
    plan = FaultsConfig(
        events=(
            FaultSpec("eci.link", "bit_flip", at=20.0, count=2),
            FaultSpec("eci.link", "crc_storm", at=50.0, rate=0.5, duration=100.0),
            FaultSpec("eci.link", "lane_drop", at=10.0, arg="0", value=4.0,
                      duration=200.0),
        )
    )
    kernel = Kernel(seed=3)
    transport, sink = _link_pair(kernel)
    injector = FaultInjector(plan, obs=obs)
    injector.arm_eci(transport, kernel)
    _burst(kernel, transport, 40, spacing_ns=8.0)
    kernel.run()
    assert len(sink.received) == 40  # everything recovered
    assert transport.stats["crc_errors"] >= 2
    assert transport.stats["retrains"] == 2  # drop + restore
    assert transport.fault_rate == 0.0  # storm window closed
    kinds = injector.injected_kinds()
    assert {"bit_flip", "crc_storm", "lane_drop"} <= kinds
    assert obs.counter(
        "faults_injected_total", {"site": "eci.link", "kind": "bit_flip"}
    ).value == 1


# -- Ethernet hook -----------------------------------------------------------


def test_ethernet_fault_hook_drop_dup_reorder():
    kernel = Kernel()
    link = EthernetLink(kernel, seed=None)
    got = []
    link.attach("b", got.append)
    actions = iter(["drop", "dup", "reorder", None])
    link.fault_hook = lambda frame: next(actions)
    for i in range(4):
        link.send(Frame(src="a", dst="b", payload=i, size_bytes=100, seq=i))
    kernel.run()
    # drop: 0 copies; dup: 2; reorder: 1 (late); normal: 1.
    assert len(got) == 4
    assert link.stats["faulted"] == 3
    assert link.stats["dropped"] == 1
    assert link.stats["duplicated"] == 1
    assert link.stats["reordered"] == 1
    # The reordered frame (seq=2) arrives after the later frame (seq=3).
    payloads = [f.payload for f in got]
    assert payloads.index(2) > payloads.index(3)


def test_injector_net_window_and_count():
    plan = FaultsConfig(
        events=(FaultSpec("net", "drop", rate=1.0, count=3, duration=0.0),)
    )
    kernel = Kernel(seed=1)
    link = EthernetLink(kernel, seed=None)
    link.attach("b", lambda f: None)
    injector = FaultInjector(plan, obs=None)
    injector.arm_ethernet(link)
    for i in range(10):
        link.send(Frame(src="a", dst="b", payload=i, size_bytes=100))
    kernel.run()
    # rate=1.0 fires on every frame until count is exhausted.
    assert link.stats["dropped"] == 3
    assert len(injector.trace) == 3


# -- power manager -----------------------------------------------------------


def _rail_plan(rail="VDD_CORE", kind="ocp", **recovery):
    from repro.faults import FaultRecoveryConfig

    return FaultsConfig(
        events=(FaultSpec("bmc.rail", kind, arg=rail),),
        recovery=FaultRecoveryConfig(**recovery),
    )


def test_power_resequence_recovers_from_injected_ocp():
    obs = MetricsRegistry()
    manager = PowerManager(max_resequence_attempts=2, obs=obs)
    injector = FaultInjector(_rail_plan(), obs=obs)
    injector.arm_control_plane(manager)
    manager.common_power_up()
    manager.cpu_power_up()  # faults once, re-sequences, succeeds
    assert manager.regulators["VDD_CORE"].live
    assert obs.counter("bmc_resequences_total").value == 1
    events = [e for _, e in manager.events]
    assert any(e.startswith("resequence:") for e in events)
    assert ("bmc.rail", "ocp") in {(s, k) for _, s, k, _ in injector.trace}


def test_power_recovery_exhaustion_raises_typed_error():
    manager = PowerManager(max_resequence_attempts=1)
    plan = FaultsConfig(
        events=(FaultSpec("bmc.rail", "otp", arg="VDD_CORE", count=5),)
    )
    injector = FaultInjector(plan)
    injector.arm_control_plane(manager)
    manager.common_power_up()
    with pytest.raises(RailFaultError) as excinfo:
        manager.cpu_power_up()
    assert excinfo.value.rail == "VDD_CORE"
    assert "OTP" in str(excinfo.value)


def test_power_recovery_disabled_fails_fast():
    manager = PowerManager()  # max_resequence_attempts=0
    injector = FaultInjector(_rail_plan(kind="ovp"))
    injector.arm_control_plane(manager)
    manager.common_power_up()
    with pytest.raises(RailFaultError):
        manager.cpu_power_up()


# -- boot stages -------------------------------------------------------------


def _orchestrator(**kwargs):
    manager = PowerManager()
    return BootOrchestrator(manager, **kwargs)


def test_boot_stage_hang_burns_timeout_and_retries():
    obs = MetricsRegistry()
    boot = _orchestrator(max_stage_retries=1, stage_timeout_s=3.0, obs=obs)
    plan = FaultsConfig(
        events=(FaultSpec("boot.stage", "hang", arg="uefi"),)
    )
    FaultInjector(plan, obs=obs).arm_control_plane(
        boot.power, boot=boot
    )
    before = boot.clock.now_s
    boot.power_on_to_linux()
    assert boot.linux_running
    # The hang burned one full watchdog timeout on top of the stages.
    assert boot.clock.now_s - before >= 3.0
    assert obs.counter("boot_stage_hangs_total", {"stage": "uefi"}).value == 1
    assert obs.counter("boot_stage_retries_total", {"stage": "uefi"}).value == 1


def test_boot_stage_failure_exhausts_retries():
    boot = _orchestrator(max_stage_retries=1)
    plan = FaultsConfig(
        events=(FaultSpec("boot.stage", "fail", arg="atf", count=5),)
    )
    FaultInjector(plan).arm_control_plane(boot.power, boot=boot)
    with pytest.raises(BootError):
        boot.power_on_to_linux()
    assert not boot.linux_running


def test_boot_orchestrator_validation():
    with pytest.raises(ValueError):
        _orchestrator(max_stage_retries=-1)
    for timeout in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="stage_timeout_s"):
            _orchestrator(stage_timeout_s=timeout)


# -- telemetry ---------------------------------------------------------------


def test_telemetry_glitch_perturbs_one_sample():
    manager = PowerManager()
    manager.common_power_up()
    telemetry = TelemetryService(manager)
    plan = FaultsConfig(
        events=(FaultSpec("telemetry", "glitch", arg="CPU", value=10.0),)
    )
    injector = FaultInjector(plan)
    injector.arm_control_plane(manager, telemetry=telemetry)
    manager.cpu_power_up()
    telemetry.run_phases([Phase("observe", 0.2)])
    trace = telemetry.trace("CPU")
    watts = trace.watts
    # Exactly one glitched sample, an order of magnitude above its peers.
    spikes = [w for w in watts if w > 5 * min(w for w in watts if w > 0)]
    assert len(spikes) == 1
    assert ("telemetry", "glitch") in {(s, k) for _, s, k, _ in injector.trace}
    # The electrical state is untouched: only the reading glitched.
    assert manager.regulators["VDD_CORE"].live
