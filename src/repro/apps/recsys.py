"""Recommendation-model inference with FPGA-resident embeddings (§6).

"We have initial results for inference on recommendation systems
[31, 79] where the models are large and where Enzian can show the
advantage of keeping all the data in memory accessible to the FPGA
while still consistent with CPU host memory."

The model: a DLRM-style recommender -- huge sparse embedding tables
gathered per request, reduced, and scored by a small dense layer.  The
functional path is real numpy; the performance model captures the
paper's point: the bottleneck is embedding *gathers*, so where the
tables live (FPGA DRAM vs host-over-PCIe vs host DRAM) decides the
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..memory.dram import DramConfig, enzian_fpga_dram

if TYPE_CHECKING:
    import numpy as np


class RecsysError(ValueError):
    """Bad model or request shapes."""


class EmbeddingModel:
    """A DLRM-ish model: N tables + a dense scoring vector."""

    def __init__(
        self,
        n_tables: int = 8,
        rows_per_table: int = 10_000,
        dim: int = 64,
        seed: int = 0,
    ):
        import numpy as np

        if n_tables < 1 or rows_per_table < 1 or dim < 1:
            raise RecsysError("model dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.tables = [
            rng.standard_normal((rows_per_table, dim)).astype(np.float32)
            for _ in range(n_tables)
        ]
        self.dense = rng.standard_normal(dim).astype(np.float32)
        self.dim = dim
        self.rows_per_table = rows_per_table

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    @property
    def bytes_total(self) -> int:
        return sum(t.nbytes for t in self.tables)

    def score(self, indices: np.ndarray) -> np.ndarray:
        """Score a batch: indices is (batch, n_tables) of row ids."""
        import numpy as np

        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != self.n_tables:
            raise RecsysError(
                f"indices must be (batch, {self.n_tables})"
            )
        if indices.min() < 0 or indices.max() >= self.rows_per_table:
            raise RecsysError("row index out of range")
        gathered = np.stack(
            [table[indices[:, i]] for i, table in enumerate(self.tables)], axis=1
        )
        reduced = gathered.sum(axis=1)  # (batch, dim)
        return reduced @ self.dense


@dataclass(frozen=True)
class EmbeddingPlacement:
    """Where the tables live, and what a gather costs there."""

    name: str
    #: Random-access latency per embedding-row gather (ns).
    gather_latency_ns: float
    #: Sustained gather bandwidth (bytes/ns) across banks/channels.
    gather_bandwidth: float
    #: Concurrent gathers the memory system sustains.
    parallelism: int = 16


def enzian_fpga_placement(dram: DramConfig | None = None) -> EmbeddingPlacement:
    dram = dram or enzian_fpga_dram()
    return EmbeddingPlacement(
        "fpga-dram",
        gather_latency_ns=dram.channel.access_latency_ns,
        gather_bandwidth=dram.sustained_bytes_per_ns,
        parallelism=dram.channels * 8,
    )


def pcie_host_placement() -> EmbeddingPlacement:
    """Tables in host memory behind PCIe DMA: each gather is a small
    random read, paying the round trip."""
    return EmbeddingPlacement(
        "host-over-pcie", gather_latency_ns=1_100.0, gather_bandwidth=13.0,
        parallelism=32,
    )


def eci_host_placement() -> EmbeddingPlacement:
    """Tables in host memory over ECI: coherent line reads."""
    return EmbeddingPlacement(
        "host-over-eci", gather_latency_ns=550.0, gather_bandwidth=9.5,
        parallelism=64,
    )


class RecsysAccelerator:
    """Inference engine: gathers bound by the placement, MAC by clock."""

    def __init__(
        self,
        model: EmbeddingModel,
        placement: EmbeddingPlacement,
        clock_mhz: float = 300.0,
    ):
        self.model = model
        self.placement = placement
        self.clock_mhz = clock_mhz

    def infer(self, indices: np.ndarray) -> np.ndarray:
        """Functional path: identical to the model's software scoring."""
        return self.model.score(indices)

    def requests_per_s(self) -> float:
        """Throughput of this model's shape on this placement."""
        return engine_requests_per_s(
            self.model.n_tables, self.model.dim, self.placement, self.clock_mhz
        )


def engine_requests_per_s(
    n_tables: int, dim: int, placement: EmbeddingPlacement, clock_mhz: float = 300.0
) -> float:
    """Throughput: per request, n_tables gathers + the dense MAC.

    Only the model's shape enters, never its tables, so a serving
    scenario can price a request without building them.
    """
    row_bytes = dim * 4
    # Little's law on the gather engine: latency-bound rate times
    # parallelism, capped by bandwidth.
    per_gather_ns = max(
        placement.gather_latency_ns / placement.parallelism,
        row_bytes / placement.gather_bandwidth,
    )
    gather_ns = n_tables * per_gather_ns
    mac_cycles = dim / 8  # 8 MACs/cycle
    compute_ns = mac_cycles * 1_000.0 / clock_mhz
    return 1e9 / max(gather_ns, compute_ns)


def placement_comparison(model: EmbeddingModel) -> Dict[str, float]:
    """Requests/s for the three placements of the §6 argument."""
    return {
        placement.name: RecsysAccelerator(model, placement).requests_per_s()
        for placement in (
            enzian_fpga_placement(),
            eci_host_placement(),
            pcie_host_placement(),
        )
    }
