"""TCP stack performance models: FPGA-terminated vs Linux kernel (Fig. 7).

The paper's §5.2 experiment is a ping-pong between two Enzians over
100 Gb/s Ethernet: the client sends N bytes, the server echoes them,
and single-trip latency is half the round trip.  Two stacks are
compared:

* the **FPGA TCP stack** [63]: a single processing pipeline shared by
  all connections, so per-flow performance is independent of flow count
  and one flow saturates the link with an MTU as low as 2 KiB;
* the **Linux kernel stack** on a Xeon: per-flow throughput is bounded
  by per-byte CPU work on one core, so ~4 flows are needed to saturate
  100 Gb/s, and latency carries the kernel traversal cost.
"""

from __future__ import annotations

from ..params import FpgaTcpParams, LinuxTcpParams
from ..sim.units import gbps_to_bytes_per_ns

HEADERS_BYTES = 78  # Ethernet + IP + TCP + framing overhead per packet


class FpgaTcpStack:
    """Performance model of the FPGA-terminated stack."""

    def __init__(self, params: FpgaTcpParams | None = None, obs=None):
        from ..obs import NULL_REGISTRY

        self.params = params or FpgaTcpParams()
        self.obs = obs if obs is not None else NULL_REGISTRY

    @classmethod
    def from_config(cls, config, obs=None) -> "FpgaTcpStack":
        """Build from a :class:`repro.config.PlatformConfig` tree."""
        return cls(params=config.net.fpga_tcp, obs=obs)

    def pipeline_rate_bytes_per_ns(self, mtu: int) -> float:
        """Payload rate through the pipeline at a given segment size."""
        p = self.params
        cycle_ns = 1_000.0 / p.clock_mhz
        cycles = p.cycles_per_packet + -(-mtu // p.bytes_per_cycle)
        return mtu / (cycles * cycle_ns)

    def wire_rate_bytes_per_ns(self, mtu: int) -> float:
        p = self.params
        efficiency = mtu / (mtu + HEADERS_BYTES)
        return gbps_to_bytes_per_ns(p.link_gbps) * efficiency

    def throughput_gbps(self, transfer_bytes: int, mtu: int = 2048, flows: int = 1) -> float:
        """Steady-state goodput; independent of ``flows`` (§5.2)."""
        del flows  # single shared pipeline: flow count is irrelevant
        rate = min(self.pipeline_rate_bytes_per_ns(mtu), self.wire_rate_bytes_per_ns(mtu))
        # Small transfers do not amortize the stack latency.
        p = self.params
        time_ns = transfer_bytes / rate + p.stack_latency_ns + p.network_latency_ns
        goodput = transfer_bytes / time_ns * 8
        if self.obs:
            stack = {"stack": "fpga"}
            self.obs.counter("net_tcp_transfers_total", stack).inc()
            self.obs.counter("net_tcp_bytes_total", stack).inc(transfer_bytes)
            self.obs.gauge("net_tcp_goodput_gbps", stack).set(goodput)
        return goodput

    def one_way_latency_ns(self, transfer_bytes: int, mtu: int = 2048) -> float:
        """Half the ping-pong round trip for ``transfer_bytes``."""
        p = self.params
        rate = min(self.pipeline_rate_bytes_per_ns(mtu), self.wire_rate_bytes_per_ns(mtu))
        latency = p.stack_latency_ns + p.network_latency_ns + transfer_bytes / rate
        if self.obs:
            self.obs.histogram(
                "net_tcp_latency_ns", {"stack": "fpga"}
            ).observe(latency)
        return latency


class LinuxTcpStack:
    """Performance model of the kernel stack."""

    def __init__(self, params: LinuxTcpParams | None = None, obs=None):
        from ..obs import NULL_REGISTRY

        self.params = params or LinuxTcpParams()
        self.obs = obs if obs is not None else NULL_REGISTRY

    @classmethod
    def from_config(cls, config, obs=None) -> "LinuxTcpStack":
        """Build from a :class:`repro.config.PlatformConfig` tree."""
        return cls(params=config.net.linux_tcp, obs=obs)

    def per_flow_rate_bytes_per_ns(self) -> float:
        p = self.params
        per_packet_ns = p.mtu / p.core_bytes_per_ns + p.packet_cost_ns
        return p.mtu / per_packet_ns

    def throughput_gbps(self, transfer_bytes: int, mtu: int | None = None, flows: int = 1) -> float:
        p = self.params
        if flows < 1:
            raise ValueError("flows must be >= 1")
        cpu_rate = flows * self.per_flow_rate_bytes_per_ns()
        wire = gbps_to_bytes_per_ns(p.link_gbps) * p.mtu / (p.mtu + HEADERS_BYTES)
        rate = min(cpu_rate, wire)
        time_ns = transfer_bytes / rate + p.stack_latency_ns + p.network_latency_ns
        goodput = transfer_bytes / time_ns * 8
        if self.obs:
            stack = {"stack": "linux"}
            self.obs.counter("net_tcp_transfers_total", stack).inc()
            self.obs.counter("net_tcp_bytes_total", stack).inc(transfer_bytes)
            self.obs.gauge("net_tcp_goodput_gbps", stack).set(goodput)
        return goodput

    def one_way_latency_ns(self, transfer_bytes: int, mtu: int | None = None) -> float:
        p = self.params
        rate = min(self.per_flow_rate_bytes_per_ns(),
                   gbps_to_bytes_per_ns(p.link_gbps))
        latency = p.stack_latency_ns + p.network_latency_ns + transfer_bytes / rate
        if self.obs:
            self.obs.histogram(
                "net_tcp_latency_ns", {"stack": "linux"}
            ).observe(latency)
        return latency


def flows_to_saturate(stack: LinuxTcpStack, target_fraction: float = 0.95) -> int:
    """How many kernel flows are needed to reach the link rate (§5.2
    observes 4 on the Xeon/Mellanox testbed)."""
    for flows in range(1, 64):
        goodput = stack.throughput_gbps(1 << 26, flows=flows)
        if goodput >= target_fraction * stack.params.link_gbps * (
            stack.params.mtu / (stack.params.mtu + HEADERS_BYTES)
        ):
            return flows
    raise RuntimeError("link cannot be saturated")
