"""Hardware parameter records: the leaves of the platform configuration.

Each dataclass here describes one part of the board -- an ECI link, a
DDR4 channel, a PCIe attachment, a regulator -- and is used by the
model that simulates that part and aggregated by
:class:`repro.config.PlatformConfig`.  The module imports only the
standard library and :mod:`repro.sim.units`, so building a
configuration loads none of the models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim.units import GIB, gbps_to_bytes_per_ns


# -- ECI links and transfer engine (repro.eci) ----------------------------

@dataclass
class EciLinkParams:
    """Physical parameters of the ECI interconnect."""

    links: int = 2
    lanes_per_link: int = 12
    lane_gbps: float = 10.0
    encoding_efficiency: float = 0.96  # 64b/66b line coding + framing
    propagation_ns: float = 40.0       # serdes, wire, deskew
    policy: str = "address"            # 'address' | 'round_robin' | 'fixed'
    fixed_link: int = 0
    #: Credits per (link, destination, VC); 0 disables flow control.
    credits_per_vc: int = 0
    #: Receiver-side buffer drain time per message (credit return delay).
    credit_return_ns: float = 20.0
    #: Time a link spends retraining after a lane change (§4.4 bring-up).
    retrain_ns: float = 5_000.0
    #: Go-back retransmit attempts per message before it is declared lost.
    crc_retry_limit: int = 8

    def __post_init__(self):
        if self.links < 1:
            raise ValueError("need at least one link")
        if self.lanes_per_link < 1:
            raise ValueError("need at least one lane per link")
        if not 0 < self.encoding_efficiency <= 1:
            raise ValueError("encoding_efficiency must be in (0, 1]")
        if self.policy not in ("address", "round_robin", "fixed"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0 <= self.fixed_link < self.links:
            raise ValueError(
                f"fixed_link must be in 0..{self.links - 1}, got {self.fixed_link}"
            )
        if self.credits_per_vc < 0:
            raise ValueError("credits_per_vc must be non-negative")
        if self.retrain_ns < 0:
            raise ValueError("retrain_ns must be non-negative")
        if self.crc_retry_limit < 0:
            raise ValueError("crc_retry_limit must be non-negative")

    @property
    def link_rate_bytes_per_ns(self) -> float:
        """Effective per-link serialization rate."""
        raw = gbps_to_bytes_per_ns(self.lane_gbps * self.lanes_per_link)
        return raw * self.encoding_efficiency

    @property
    def total_rate_bytes_per_ns(self) -> float:
        return self.link_rate_bytes_per_ns * self.links


@dataclass(frozen=True)
class TransferEngineParams:
    """Timing of the endpoints around the raw link."""

    #: FPGA-side request issue/processing latency per transaction (ns).
    #: Dominated by the ECI controller pipeline at 200-300 MHz.
    fpga_issue_ns: float = 170.0
    #: CPU-side L2 subsystem lookup latency for the first access (ns).
    l2_latency_ns: float = 230.0
    #: L2 subsystem per-line occupancy: reads must fetch data.
    l2_occupancy_read_ns: float = 13.5
    #: L2 per-line occupancy for writes (deposit into write buffer).
    l2_occupancy_write_ns: float = 5.5
    #: FPGA-side completion handling per line (ns).
    fpga_complete_ns: float = 90.0
    #: Maximum outstanding line transactions.
    window: int = 64

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")


# -- RDMA paths and TCP stacks (repro.net) --------------------------------

@dataclass(frozen=True)
class RdmaPathParams:
    """One platform configuration of Figure 8."""

    name: str
    link_gbps: float = 100.0
    nic_pipeline_ns: float = 900.0      # FPGA/NIC RDMA engine traversal
    network_ns: float = 1_000.0         # wire + switch, one way
    memory_kind: str = "local_dram"     # 'local_dram' | 'eci_host' | 'pcie_host'


@dataclass(frozen=True)
class FpgaTcpParams:
    """The single-pipeline hardware stack."""

    link_gbps: float = 100.0
    clock_mhz: float = 300.0
    #: Pipeline width: bytes of payload processed per clock.
    bytes_per_cycle: int = 64
    #: Fixed per-packet pipeline occupancy (cycles): header parse, state
    #: lookup, checksum finalization.
    cycles_per_packet: int = 15
    #: One-way wire+switch latency, ns.
    network_latency_ns: float = 1_000.0
    #: Fixed stack traversal latency per direction, ns.
    stack_latency_ns: float = 2_500.0


@dataclass(frozen=True)
class LinuxTcpParams:
    """The kernel stack on a fast Xeon (Gold 6248 class)."""

    link_gbps: float = 100.0
    #: Per-byte CPU cost on one core: copies, checksum, skb handling.
    #: ~2.9 GB/s effective per core -> needs ~4 flows for 100 Gb/s.
    core_bytes_per_ns: float = 3.6
    #: Per-packet kernel cost (syscall amortization, interrupts), ns.
    packet_cost_ns: float = 100.0
    mtu: int = 1500
    network_latency_ns: float = 1_000.0
    #: Kernel traversal (syscall, softirq, scheduling) per direction, ns.
    stack_latency_ns: float = 25_000.0


# -- the ThunderX-1 SoC (repro.cpu) ---------------------------------------

@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line-size of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 128

    def __post_init__(self):
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible into {self.ways} ways "
                f"of {self.line_bytes}-byte lines"
            )

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class CoreParams:
    """One ARMv8 in-order core."""

    freq_ghz: float = 2.0
    ipc_peak: float = 1.6          # dual-issue, realistically achieved
    l1_hit_cycles: int = 3
    l2_hit_cycles: int = 40
    local_dram_cycles: int = 180
    remote_refill_cycles: int = 420  # NUMA-remote (across ECI/CCPI)

    def __post_init__(self):
        if self.freq_ghz <= 0 or self.ipc_peak <= 0:
            raise ValueError("frequency and IPC must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class ThunderXSpec:
    """Static configuration of the SoC."""

    n_cores: int = 48
    core: CoreParams = CoreParams(freq_ghz=2.0)
    l1i: CacheGeometry = CacheGeometry(size_bytes=78 * 1024, ways=39, line_bytes=128)
    l1d: CacheGeometry = CacheGeometry(size_bytes=32 * 1024, ways=32, line_bytes=128)
    l2: CacheGeometry = CacheGeometry(size_bytes=16 * 1024 * 1024, ways=16, line_bytes=128)
    nic_ports_40g: int = 2
    sata_ports: int = 4
    has_match_action_switch: bool = True  # 'networking' CN88xx variant
    on_die_accelerators: tuple = ("crypto", "compression", "nic")

    @property
    def aggregate_ghz(self) -> float:
        return self.n_cores * self.core.freq_ghz


# -- DDR4 memory (repro.memory) -------------------------------------------

@dataclass(frozen=True)
class DdrChannelParams:
    """One DDR4 channel."""

    speed_mt: int = 2133          # mega-transfers per second
    width_bits: int = 64
    dimm_gib: int = 32
    #: CAS latency + controller pipeline, first-word (ns).
    access_latency_ns: float = 60.0
    #: Fraction of peak usable under realistic access streams
    #: (bank conflicts, refresh, turnarounds).
    efficiency: float = 0.80

    def __post_init__(self):
        if self.speed_mt <= 0 or self.width_bits <= 0 or self.dimm_gib <= 0:
            raise ValueError("DDR parameters must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def peak_bytes_per_ns(self) -> float:
        return self.speed_mt * 1e6 * (self.width_bits // 8) / 1e9

    @property
    def sustained_bytes_per_ns(self) -> float:
        return self.peak_bytes_per_ns * self.efficiency

    @property
    def peak_gibps(self) -> float:
        return self.peak_bytes_per_ns * 1e9 / GIB


@dataclass(frozen=True)
class DramConfig:
    """A node's memory system: N identical channels."""

    channels: int = 4
    channel: DdrChannelParams = DdrChannelParams()

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("need at least one channel")

    @property
    def capacity_gib(self) -> int:
        return self.channels * self.channel.dimm_gib

    @property
    def peak_bandwidth_gibps(self) -> float:
        return self.channels * self.channel.peak_gibps

    @property
    def sustained_bandwidth_gibps(self) -> float:
        return self.peak_bandwidth_gibps * self.channel.efficiency

    @property
    def sustained_bytes_per_ns(self) -> float:
        return self.channels * self.channel.sustained_bytes_per_ns

    def burst_latency_ns(self, size_bytes: int) -> float:
        """First access latency plus streaming time, channel-interleaved."""
        if size_bytes < 1:
            raise ValueError("size must be positive")
        return (
            self.channel.access_latency_ns
            + size_bytes / self.sustained_bytes_per_ns
        )


# -- PCIe attachment (repro.interconnect) ---------------------------------

#: Per-lane effective data rate in Gb/s after line coding, per generation.
_GEN_LANE_GBPS = {
    1: 2.5 * 8 / 10,     # 8b/10b
    2: 5.0 * 8 / 10,     # 8b/10b
    3: 8.0 * 128 / 130,  # 128b/130b
    4: 16.0 * 128 / 130,
    5: 32.0 * 128 / 130,
}


@dataclass(frozen=True)
class PcieParams:
    """Configuration of a PCIe attachment."""

    generation: int = 3
    lanes: int = 16
    #: Maximum payload size per TLP (bytes); 256 is the common setting.
    max_payload: int = 256
    #: TLP header + DLLP/framing overhead per TLP (bytes).
    tlp_overhead: int = 26
    #: One-time DMA setup: doorbell write + descriptor fetch (ns).
    dma_setup_ns: float = 900.0
    #: Completion/interrupt signalling after the last TLP (ns).
    dma_complete_ns: float = 350.0
    #: Payload-independent per-TLP pipeline cost in the DMA engine (ns).
    per_tlp_ns: float = 9.0

    def __post_init__(self):
        if self.generation not in _GEN_LANE_GBPS:
            raise ValueError(f"unsupported PCIe generation {self.generation}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")
        if self.max_payload < 64:
            raise ValueError("max_payload must be >= 64")

    @property
    def raw_rate_bytes_per_ns(self) -> float:
        return gbps_to_bytes_per_ns(_GEN_LANE_GBPS[self.generation] * self.lanes)

    @property
    def framing_efficiency(self) -> float:
        return self.max_payload / (self.max_payload + self.tlp_overhead)

    @property
    def effective_rate_bytes_per_ns(self) -> float:
        return self.raw_rate_bytes_per_ns * self.framing_efficiency


# -- regulators (repro.bmc) ------------------------------------------------

@dataclass(frozen=True)
class RegulatorParams:
    """Device characteristics."""

    soft_start_ms: float = 5.0
    efficiency: float = 0.90
    ambient_c: float = 35.0
    #: Thermal resistance: degrees C per watt dissipated in the regulator.
    theta_c_per_w: float = 1.2
    #: OCP threshold as a multiple of the rail's max current.
    ocp_multiple: float = 1.25
    short_circuit_a: float = 180.0

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.soft_start_ms < 0:
            raise ValueError("soft_start_ms must be non-negative")


# -- FPGA power and workload levels (repro.fpga, repro.apps) --------------

@dataclass(frozen=True)
class FpgaPowerParams:
    """First-order FPGA power model.

    Dynamic power scales with utilized area, clock frequency, and toggle
    rate; static power is leakage for the whole die.
    """

    static_w: float = 18.0
    #: Dynamic watts at 100% area, 100% toggle, 250 MHz.
    dynamic_full_w: float = 160.0
    reference_mhz: float = 250.0


@dataclass(frozen=True)
class CpuLoadLevels:
    """VDD_CORE draw (watts) of the Figure 12 CPU phases."""

    idle_w: float = 28.0
    bdk_dram_check_w: float = 45.0
    bus_test_w: float = 55.0
    memtest_marching_w: float = 88.0
    memtest_random_w: float = 95.0

    def dram_w(self, active: bool) -> float:
        """Per-DRAM-group (two channels) draw."""
        return 14.0 if active else 4.0


@dataclass(frozen=True)
class KvsPerformanceParams:
    """Request-rate model: FPGA pipeline vs CPU software server."""

    fpga_clock_mhz: float = 300.0
    #: Pipeline initiation interval per request (hash, probe, DRAM access).
    fpga_cycles_per_request: float = 12.0
    #: CPU path: kernel network stack + hash table walk per request (ns).
    cpu_ns_per_request: float = 2_300.0
    cpu_cores: int = 48
    link_gbps: float = 100.0
    request_bytes: int = 64
