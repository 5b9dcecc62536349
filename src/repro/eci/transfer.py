"""Bulk-transfer performance model over ECI (Figure 6 substrate).

The paper's §5.1 benchmark moves data between the FPGA and host (CPU)
memory using *uncached, coherent, cacheline-sized transactions*: a
transfer of S bytes is ceil(S/128) independent line transactions kept
in flight by the FPGA's transfer engine.  Every line flows through four
stations:

  FPGA engine -> request link -> CPU L2 subsystem -> response link -> FPGA

Each station is a serializer (handles one line at a time); the engine
keeps up to ``window`` lines outstanding.  Because everything is
deterministic the pipeline is evaluated with the standard tandem-queue
recurrence rather than event-by-event simulation, which keeps parameter
sweeps cheap while remaining cycle-exact for this structure.

Reads are slightly slower than writes because the ThunderX-1's L2
subsystem handles all CPU-side transfers (§5.1: "we conjecture that the
limiting factor here is the performance of the ThunderX-1's L2 cache
subsystem") -- its per-line occupancy is higher for reads, which must
look up and fetch data, than for writes, which deposit into write
buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from ..params import EciLinkParams, TransferEngineParams
from ..sim.units import GIB
from .messages import CACHE_LINE_BYTES, HEADER_BYTES


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one modelled transfer."""

    size_bytes: int
    lines: int
    latency_ns: float          # time to last byte

    @property
    def throughput_bytes_per_ns(self) -> float:
        return self.size_bytes / self.latency_ns

    @property
    def throughput_gibps(self) -> float:
        return self.throughput_bytes_per_ns * 1e9 / GIB

    @property
    def latency_us(self) -> float:
        return self.latency_ns / 1000.0


Direction = Literal["read", "write"]


def simulate_transfer(
    size_bytes: int,
    direction: Direction,
    link: EciLinkParams | None = None,
    engine: TransferEngineParams | None = None,
    links_used: int = 1,
    line_bytes: int = CACHE_LINE_BYTES,
) -> TransferResult:
    """Model one coherent bulk transfer of ``size_bytes``.

    ``links_used`` restricts traffic to a subset of the ECI links, as the
    paper does ("we restrict all traffic on Enzian to only one of the
    two ECI links").  ``line_bytes`` defaults to ECI's 128-byte line; the
    cache-line ablation bench varies it.
    """
    if size_bytes < 1:
        raise ValueError("size must be positive")
    if direction not in ("read", "write"):
        raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")
    if line_bytes < 16:
        raise ValueError("line_bytes too small")
    link = link or EciLinkParams()
    engine = engine or TransferEngineParams()
    if not 1 <= links_used <= link.links:
        raise ValueError(f"links_used must be in 1..{link.links}")

    lines = math.ceil(size_bytes / line_bytes)
    rate = link.link_rate_bytes_per_ns * links_used

    if direction == "read":
        # FPGA reads host memory: header-only request, data-bearing response.
        request_bytes = HEADER_BYTES
        response_bytes = HEADER_BYTES + line_bytes
        l2_occupancy = engine.l2_occupancy_read_ns
    else:
        # FPGA writes host memory: data-bearing request, header-only ack.
        request_bytes = HEADER_BYTES + line_bytes
        response_bytes = HEADER_BYTES
        l2_occupancy = engine.l2_occupancy_write_ns

    ser_req = request_bytes / rate
    ser_rsp = response_bytes / rate
    prop = link.propagation_ns

    # Tandem-queue recurrence.  For line i (0-based):
    #   issue[i]    = max(issue[i-1] + fpga_issue, complete[i-window])
    #   req_out[i]  = max(issue[i], req_out[i-1]) + ser_req
    #   l2_done[i]  = max(req_out[i] + prop + l2_latency_first,
    #                     l2_done[i-1]) + occupancy
    #   rsp_out[i]  = max(l2_done[i], rsp_out[i-1]) + ser_rsp
    #   complete[i] = rsp_out[i] + prop + fpga_complete
    window = engine.window
    complete = [0.0] * lines
    issue_prev = -engine.fpga_issue_ns
    req_prev = 0.0
    l2_prev = 0.0
    rsp_prev = 0.0
    for i in range(lines):
        gate = complete[i - window] if i >= window else 0.0
        issue = max(issue_prev + engine.fpga_issue_ns / window, gate)
        issue_prev = issue
        req_out = max(issue, req_prev) + ser_req
        req_prev = req_out
        l2_done = max(req_out + prop + engine.l2_latency_ns, l2_prev) + l2_occupancy
        l2_prev = l2_done
        rsp_out = max(l2_done, rsp_prev) + ser_rsp
        rsp_prev = rsp_out
        complete[i] = rsp_out + prop + engine.fpga_complete_ns

    return TransferResult(
        size_bytes=size_bytes, lines=lines, latency_ns=complete[-1]
    )


def sweep_transfer_sizes(
    sizes: list[int],
    direction: Direction,
    link: EciLinkParams | None = None,
    engine: TransferEngineParams | None = None,
    links_used: int = 1,
) -> list[TransferResult]:
    """Run :func:`simulate_transfer` over a list of sizes."""
    return [
        simulate_transfer(size, direction, link=link, engine=engine, links_used=links_used)
        for size in sizes
    ]


def dual_socket_reference() -> TransferResult:
    """The commercial 2-socket ThunderX-1 NUMA reference point (§5.1).

    The paper measured 19 GiB/s achievable throughput and 150 ns latency
    between two CPUs with hardware load-balancing across both links.
    Modelled as: full hardware endpoints (no FPGA controller latency)
    over both links.
    """
    link = EciLinkParams(propagation_ns=25.0)
    engine = TransferEngineParams(
        fpga_issue_ns=12.0,
        l2_latency_ns=95.0,
        l2_occupancy_read_ns=6.2,
        l2_occupancy_write_ns=6.2,
        fpga_complete_ns=5.0,
        window=64,
    )
    return simulate_transfer(
        CACHE_LINE_BYTES, "read", link=link, engine=engine, links_used=2
    )


def dual_socket_reference_bandwidth_gibps(size_bytes: int = 1 << 20) -> float:
    """Sustained 2-socket CCPI bandwidth at large transfer size."""
    link = EciLinkParams(propagation_ns=25.0)
    engine = TransferEngineParams(
        fpga_issue_ns=12.0,
        l2_latency_ns=95.0,
        l2_occupancy_read_ns=6.2,
        l2_occupancy_write_ns=6.2,
        fpga_complete_ns=5.0,
        window=64,
    )
    result = simulate_transfer(size_bytes, "read", link=link, engine=engine, links_used=2)
    return result.throughput_gibps
