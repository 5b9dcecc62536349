"""Cross-layer instrumentation: every major package reports into one
registry, and attaching no registry changes no benchmark output."""

import numpy as np
import pytest

from repro.apps.vision.frames import synthetic_frame
from repro.apps.vision.pipeline import (
    ReductionMode,
    hard_pipeline,
    reduce_frame,
    soft_pipeline,
)
from repro.bmc.power_manager import PowerManager
from repro.bmc.telemetry import Phase, TelemetryService
from repro.eci import (
    CACHE_LINE_BYTES,
    CacheAgent,
    EciLinkParams,
    EciLinkTransport,
    HomeAgent,
    InstantTransport,
    TraceRecorder,
    VirtualCircuit,
)
from repro.net.rdma import QueuePair, RdmaTarget
from repro.net.tcp import FpgaTcpStack, LinuxTcpStack
from repro.obs import MetricsRegistry
from repro.sim import Kernel, Timeout

PATTERN = bytes(range(128)) * (CACHE_LINE_BYTES // 128)


def _counter_value(obs, name, labels=None):
    return obs.counter(name, labels).value


# -- sim.kernel ------------------------------------------------------------

def test_kernel_counts_events_and_processes():
    obs = MetricsRegistry()
    kernel = Kernel(obs=obs)

    def proc():
        yield Timeout(5)
        yield Timeout(5)

    kernel.run_process(proc())
    assert _counter_value(obs, "sim_processes_total") == 1
    assert _counter_value(obs, "sim_events_total") >= 3  # start + 2 wakes
    assert obs.gauge("sim_queue_depth").value == 0


def test_kernel_wake_latency_histogram():
    obs = MetricsRegistry()
    kernel = Kernel(obs=obs)
    kernel.call_after(32.0, lambda _: None)
    kernel.run()
    h = obs.histogram("sim_wake_latency_ns")
    assert h.count == 1
    assert h.min == 32.0
    assert h.bucket_bound(32.0) == 32.0


def test_kernel_binds_registry_clock():
    obs = MetricsRegistry(record_events=True)
    kernel = Kernel(obs=obs)
    kernel.call_at(17.0, lambda _: obs.counter("x_total").inc())
    kernel.run()
    marks = [e.t for e in obs.events if e.name == "x_total"]
    assert marks == [17.0]


# -- eci protocol + link ---------------------------------------------------

def _coherent_system(obs=None, transport_cls=InstantTransport, **kwargs):
    kernel = Kernel()
    transport = transport_cls(kernel, obs=obs, **kwargs)
    home = HomeAgent(kernel, 0, transport, name="home")
    caches = [
        CacheAgent(kernel, i + 1, transport, home_for=lambda a: 0, name=f"c{i + 1}")
        for i in range(2)
    ]
    return kernel, transport, home, caches


def _two_agent_workload(kernel, caches):
    c0, c1 = caches

    def proc():
        yield from c0.write(0x0, PATTERN)
        yield from c1.read(0x0)
        yield from c1.write(0x0, PATTERN)

    kernel.run_process(proc())


def test_transport_per_vc_counters_match_a_trace():
    obs = MetricsRegistry()
    kernel, transport, _, caches = _coherent_system(obs)
    recorder = TraceRecorder()
    transport.observers.append(recorder)
    _two_agent_workload(kernel, caches)
    for vc in VirtualCircuit:
        captured = recorder.filter(vc=vc)
        assert _counter_value(obs, "eci_messages_total", {"vc": vc.name}) == len(
            captured
        )
        assert _counter_value(obs, "eci_bytes_total", {"vc": vc.name}) == sum(
            r.message.wire_bytes for r in captured
        )


def test_cache_state_transition_counters():
    obs = MetricsRegistry()
    kernel, _, _, caches = _coherent_system(obs)
    _two_agent_workload(kernel, caches)
    # c0's write miss installs the line exclusive then modified.
    assert (
        _counter_value(
            obs, "eci_state_transitions_total", {"node": "c1", "from": "I", "to": "E"}
        )
        >= 1
    )
    snap = {
        (m.labels["node"], m.labels["from"], m.labels["to"]): m.value
        for m in obs.metrics()
        if m.name == "eci_state_transitions_total"
    }
    assert all(old != new for (_, old, new) in snap)


def test_home_agent_counters_track_stats():
    obs = MetricsRegistry()
    kernel, _, home, caches = _coherent_system(obs)
    _two_agent_workload(kernel, caches)
    assert _counter_value(obs, "eci_home_requests_total", {"type": "RLDD"}) >= 1
    total_requests = sum(
        m.value for m in obs.metrics() if m.name == "eci_home_requests_total"
    )
    assert total_requests == home.stats["requests"]
    total_forwards = sum(
        m.value for m in obs.metrics() if m.name == "eci_forwards_total"
    )
    assert total_forwards == home.stats["forwards"] > 0


def test_eci_link_transport_observes_bytes_and_queueing():
    obs = MetricsRegistry()
    kernel, transport, _, caches = _coherent_system(
        obs, transport_cls=EciLinkTransport, params=EciLinkParams()
    )
    _two_agent_workload(kernel, caches)
    per_link = [
        _counter_value(obs, "eci_link_bytes_total", {"link": str(i)})
        for i in range(transport.params.links)
    ]
    assert per_link == transport.stats["bytes_per_link"]
    assert obs.histogram("eci_link_queueing_ns").count == transport.stats["messages"]


# -- bmc -------------------------------------------------------------------

def test_telemetry_bridges_rail_gauges():
    obs = MetricsRegistry()
    manager = PowerManager()
    manager.common_power_up()
    manager.fpga_power_up()
    manager.cpu_power_up()
    service = TelemetryService(manager, sample_period_ms=20.0, obs=obs)
    service.run_phases([Phase("idle", duration_s=0.2)])
    for label in service.rails:
        watts = obs.gauge("bmc_rail_watts", {"rail": label}).value
        assert watts == pytest.approx(service.trace(label).samples[-1].watts)
    assert obs.gauge("bmc_rail_volts", {"rail": "CPU"}).value > 0
    assert _counter_value(obs, "bmc_samples_total") == len(
        service.trace("CPU").samples
    )


def test_power_manager_sequence_counters():
    obs = MetricsRegistry()
    manager = PowerManager(obs=obs)
    manager.common_power_up()
    manager.cpu_power_up()
    on_events = _counter_value(obs, "bmc_rail_events_total", {"op": "on"})
    assert on_events == len(manager.events)
    assert obs.gauge("bmc_rails_live").value == on_events
    manager.cpu_power_down()
    assert _counter_value(obs, "bmc_rail_events_total", {"op": "off"}) > 0
    assert obs.gauge("bmc_rails_live").value < on_events


# -- net -------------------------------------------------------------------

def test_tcp_stacks_report_counters_and_latency():
    obs = MetricsRegistry()
    fpga = FpgaTcpStack(obs=obs)
    linux = LinuxTcpStack(obs=obs)
    goodput = fpga.throughput_gbps(1 << 20)
    linux.throughput_gbps(1 << 20, flows=4)
    fpga.one_way_latency_ns(4096)
    assert _counter_value(obs, "net_tcp_transfers_total", {"stack": "fpga"}) == 1
    assert _counter_value(obs, "net_tcp_bytes_total", {"stack": "linux"}) == 1 << 20
    assert obs.gauge("net_tcp_goodput_gbps", {"stack": "fpga"}).value == goodput
    assert obs.histogram("net_tcp_latency_ns", {"stack": "fpga"}).count == 1


def test_rdma_queue_pair_counters():
    obs = MetricsRegistry()
    target = RdmaTarget(4096)
    rkey = target.register(0, 4096)
    qp = QueuePair(target, obs=obs)
    qp.post_write(rkey, 0, b"hello")
    qp.post_read(rkey, 0, 5)
    qp.post_read(rkey, 0, 3)
    assert _counter_value(obs, "net_rdma_ops_total", {"op": "write"}) == 1
    assert _counter_value(obs, "net_rdma_ops_total", {"op": "read"}) == 2
    assert _counter_value(obs, "net_rdma_bytes_total", {"op": "read"}) == 8


def test_reliable_sender_counts_sends_and_retransmits():
    from repro.net.ethernet import EthernetLink
    from repro.net.reliable import ReliableReceiver, ReliableSender

    obs = MetricsRegistry()
    kernel = Kernel()
    link = EthernetLink(kernel, loss_rate=0.2, seed=7)
    sender = ReliableSender(kernel, link, "a", "b", obs=obs)
    ReliableReceiver(kernel, link, "b", "a")
    stats = kernel.run_process(sender.send(bytes(64 * 1024)))
    assert _counter_value(obs, "net_segments_sent_total") == stats["sent"]
    assert _counter_value(obs, "net_retransmits_total") == stats["retransmitted"]
    assert stats["retransmitted"] > 0
    assert _counter_value(obs, "net_acks_total") == stats["acks"]


# -- app pipelines ---------------------------------------------------------

def test_vision_pipeline_stage_histograms():
    obs = MetricsRegistry()
    frame = synthetic_frame(64, 64)
    soft = soft_pipeline(frame, obs=obs)
    assert np.array_equal(soft, soft_pipeline(frame))
    reduced = reduce_frame(frame, ReductionMode.Y4)
    hard = hard_pipeline(reduced, ReductionMode.Y4, obs=obs)
    assert np.array_equal(hard, hard_pipeline(reduced, ReductionMode.Y4))
    assert obs.histogram("app_vision_stage_ns", {"stage": "rgb2y"}).count == 1
    assert obs.histogram("app_vision_stage_ns", {"stage": "unpack"}).count == 1
    assert obs.histogram("app_vision_stage_ns", {"stage": "blur"}).count == 2
    assert _counter_value(obs, "app_vision_pixels_total") == 2 * 64 * 64


# -- the zero-overhead contract -------------------------------------------

def test_protocol_run_identical_with_and_without_obs():
    def run(obs):
        kernel, transport, home, caches = _coherent_system(obs)
        _two_agent_workload(kernel, caches)
        return kernel.now, caches[0].stats, caches[1].stats, home.stats

    assert run(None) == run(MetricsRegistry())


def test_tcp_model_identical_with_and_without_obs():
    plain = LinuxTcpStack()
    observed = LinuxTcpStack(obs=MetricsRegistry())
    assert plain.throughput_gbps(1 << 22, flows=2) == observed.throughput_gbps(
        1 << 22, flows=2
    )
    assert plain.one_way_latency_ns(1 << 14) == observed.one_way_latency_ns(1 << 14)
