"""PCI Express interconnect model (the commercial-accelerator baseline).

PCIe is designed for throughput: bulk DMA transfers amortize a
substantial per-transfer setup cost (doorbell write, descriptor fetch,
completion signalling), and the wire carries data in Transaction Layer
Packets (TLPs) whose headers tax small payloads.  The model captures:

* line rate per generation and width (Gen3 x16 = 8 GT/s x 16 lanes with
  128b/130b encoding = 15.75 GB/s raw per direction);
* TLP framing efficiency = mps / (mps + overhead);
* DMA engine setup and completion latencies.

This reproduces the behaviour the paper leans on in §5.1: excellent
large-transfer bandwidth, but high time-to-last-byte for transfers in
the sub-4-KiB range where ECI's per-cacheline pipelining wins.
"""

from __future__ import annotations

from ..params import PcieParams
from .base import InterconnectModel


class PcieModel(InterconnectModel):
    """DMA-based bulk transfers over PCIe."""

    def __init__(self, params: PcieParams | None = None, name: str = "pcie"):
        self.params = params or PcieParams()
        self.name = name

    def transfer_latency_ns(self, size_bytes: int, direction: str) -> float:
        if size_bytes < 1:
            raise ValueError("size must be positive")
        if direction not in ("read", "write"):
            raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")
        p = self.params
        tlps = -(-size_bytes // p.max_payload)  # ceil division
        wire_ns = size_bytes / p.effective_rate_bytes_per_ns
        pipeline_ns = tlps * p.per_tlp_ns
        # DMA reads need an extra round trip: the read request TLP must
        # cross before completions stream back.
        read_turnaround = 250.0 if direction == "read" else 0.0
        return (
            p.dma_setup_ns
            + read_turnaround
            + max(wire_ns, pipeline_ns)
            + p.dma_complete_ns
        )


def alveo_u250_pcie() -> PcieModel:
    """The Xilinx Alveo u250 baseline used in Figure 6 (x16 Gen3)."""
    return PcieModel(PcieParams(generation=3, lanes=16), name="alveo-u250-pcie")


def crossover_size_bytes(
    pcie: PcieModel, eci_latency_ns, sizes: list[int], direction: str = "write"
) -> int | None:
    """First size at which PCIe's time-to-last-byte beats ECI's.

    ``eci_latency_ns`` is a callable size -> latency.  Returns None when
    PCIe never wins within ``sizes``.
    """
    for size in sorted(sizes):
        if pcie.transfer_latency_ns(size, direction) < eci_latency_ns(size):
            return size
    return None
