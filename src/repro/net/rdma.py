"""RDMA: a StRoM-like smart-NIC stack (Figure 8).

StRoM [64] terminates RoCE-style one-sided operations in the FPGA.  On
Enzian, remote reads/writes of *host* memory traverse ECI and are
therefore coherent with the CPU's L2; accesses to the FPGA's own DDR4
go straight to the local memory controller.  The model has two parts:

* a **functional** engine: queue pairs executing one-sided READ/WRITE
  against a real byte store, so correctness is testable;
* a **performance** model combining NIC pipeline, network, and the
  memory path behind the NIC (local DRAM vs host over ECI vs host over
  PCIe) to regenerate the figure's latency/throughput curves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..eci.transfer import simulate_transfer
from ..interconnect.pcie import PcieModel, PcieParams
from ..memory.dram import DramConfig, enzian_fpga_dram
from ..params import RdmaPathParams
from ..sim.units import GIB, gbps_to_bytes_per_ns


class RdmaOp(enum.Enum):
    READ = "read"
    WRITE = "write"


class RdmaError(RuntimeError):
    """Protection or addressing violation."""


@dataclass
class MemoryRegion:
    """A registered memory region (lkey/rkey protection domain)."""

    base: int
    length: int
    writable: bool = True

    def check(self, addr: int, length: int, write: bool) -> None:
        if addr < self.base or addr + length > self.base + self.length:
            raise RdmaError(
                f"access [{addr:#x}, +{length}) outside region "
                f"[{self.base:#x}, +{self.length})"
            )
        if write and not self.writable:
            raise RdmaError("write to read-only region")


class RdmaTarget:
    """The passive side: registered regions over a byte store."""

    def __init__(self, size: int):
        self.memory = bytearray(size)
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_rkey = 1

    def register(self, base: int, length: int, writable: bool = True) -> int:
        if base < 0 or base + length > len(self.memory):
            raise RdmaError("region outside target memory")
        rkey = self._next_rkey
        self._next_rkey += 1
        self._regions[rkey] = MemoryRegion(base, length, writable)
        return rkey

    def deregister(self, rkey: int) -> None:
        if rkey not in self._regions:
            raise RdmaError(f"unknown rkey {rkey}")
        del self._regions[rkey]

    def execute(self, op: RdmaOp, rkey: int, addr: int, data: Optional[bytes] = None,
                length: int = 0) -> Optional[bytes]:
        region = self._regions.get(rkey)
        if region is None:
            raise RdmaError(f"unknown rkey {rkey}")
        if op is RdmaOp.WRITE:
            if data is None:
                raise RdmaError("WRITE requires data")
            region.check(addr, len(data), write=True)
            self.memory[addr : addr + len(data)] = data
            return None
        region.check(addr, length, write=False)
        return bytes(self.memory[addr : addr + length])


class QueuePair:
    """The active side: issues verbs against a target."""

    def __init__(self, target: RdmaTarget, obs=None, breaker=None):
        from ..obs import NULL_REGISTRY

        self.target = target
        self.completions = 0
        self.obs = obs if obs is not None else NULL_REGISTRY
        #: Optional :class:`repro.health.CircuitBreaker` guarding the
        #: verbs path; None (the default) costs one comparison per op.
        self.breaker = breaker

    def _guarded(self, op: RdmaOp, rkey: int, addr: int, data=None, length: int = 0):
        if self.breaker is None:
            return self.target.execute(op, rkey, addr, data, length)
        self.breaker.check()
        try:
            result = self.target.execute(op, rkey, addr, data, length)
        except RdmaError:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    def post_write(self, rkey: int, addr: int, data: bytes) -> None:
        self._guarded(RdmaOp.WRITE, rkey, addr, data)
        self.completions += 1
        if self.obs:
            op = {"op": "write"}
            self.obs.counter("net_rdma_ops_total", op).inc()
            self.obs.counter("net_rdma_bytes_total", op).inc(len(data))

    def post_read(self, rkey: int, addr: int, length: int) -> bytes:
        result = self._guarded(RdmaOp.READ, rkey, addr, length=length)
        self.completions += 1
        if self.obs:
            op = {"op": "read"}
            self.obs.counter("net_rdma_ops_total", op).inc()
            self.obs.counter("net_rdma_bytes_total", op).inc(length)
        return result


# -- performance model ---------------------------------------------------

class RdmaPerformanceModel:
    """Latency/throughput of one-sided ops for one platform path."""

    def __init__(self, params: RdmaPathParams, dram: DramConfig | None = None):
        self.params = params
        self.dram = dram or enzian_fpga_dram()
        self._pcie = PcieModel(PcieParams())

    @classmethod
    def from_config(cls, config) -> "RdmaPerformanceModel":
        """Build from a :class:`repro.config.PlatformConfig` tree.

        Uses the configured RDMA path, the FPGA-side DRAM system, and
        the PCIe attachment parameters."""
        model = cls(config.net.rdma, dram=config.memory.fpga_dram)
        model._pcie = PcieModel(config.interconnect.pcie)
        return model

    def _memory_time_ns(self, size: int, direction: str) -> float:
        kind = self.params.memory_kind
        if kind == "local_dram":
            return self.dram.burst_latency_ns(size)
        if kind == "eci_host":
            return simulate_transfer(size, direction).latency_ns
        if kind == "pcie_host":
            return self._pcie.transfer_latency_ns(size, direction)
        raise ValueError(f"unknown memory kind {kind!r}")

    def latency_ns(self, size: int, op: RdmaOp) -> float:
        """Requester-observed completion latency of one operation."""
        p = self.params
        wire_rate = gbps_to_bytes_per_ns(p.link_gbps) * 0.92  # RoCE framing
        wire_ns = size / wire_rate
        direction = "read" if op is RdmaOp.READ else "write"
        memory_ns = self._memory_time_ns(size, direction)
        if op is RdmaOp.READ:
            # request over, memory fetch, data back.
            return 2 * p.network_ns + 2 * p.nic_pipeline_ns + memory_ns + wire_ns
        # WRITE: data over, memory commit, ack back.
        return 2 * p.network_ns + 2 * p.nic_pipeline_ns + memory_ns + wire_ns

    def throughput_gibps(self, size: int, op: RdmaOp, outstanding: int = 16) -> float:
        """Streaming throughput with ``outstanding`` operations in flight."""
        p = self.params
        wire_rate = gbps_to_bytes_per_ns(p.link_gbps) * 0.92
        direction = "read" if op is RdmaOp.READ else "write"
        per_op_memory = self._memory_time_ns(size, direction)
        latency = self.latency_ns(size, op)
        # Pipeline limit: the slowest serial stage per op.
        stage_ns = max(size / wire_rate, per_op_memory / max(1, outstanding) + 1e-9)
        rate = size / max(stage_ns, latency / outstanding)
        return rate * 1e9 / GIB


def figure8_paths() -> Dict[str, RdmaPerformanceModel]:
    """The five configurations Figure 8 plots."""
    return {
        "Alveo DRAM": RdmaPerformanceModel(
            RdmaPathParams("Alveo DRAM", memory_kind="local_dram"),
            dram=DramConfig(channels=2),
        ),
        "Alveo Host": RdmaPerformanceModel(
            RdmaPathParams("Alveo Host", memory_kind="pcie_host")
        ),
        "Mellanox Host": RdmaPerformanceModel(
            RdmaPathParams(
                "Mellanox Host",
                nic_pipeline_ns=500.0,  # hard ASIC NIC
                memory_kind="pcie_host",
            )
        ),
        "Enzian DRAM": RdmaPerformanceModel(
            RdmaPathParams("Enzian DRAM", memory_kind="local_dram"),
            dram=enzian_fpga_dram(),
        ),
        "Enzian Host": RdmaPerformanceModel(
            RdmaPathParams("Enzian Host", memory_kind="eci_host")
        ),
    }
