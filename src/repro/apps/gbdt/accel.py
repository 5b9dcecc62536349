"""The FPGA decision-tree inference engine (Figure 9).

The accelerator streams tuples from host memory through a pipelined
tree-traversal engine and writes results back, double-buffering to
overlap copy and compute (§5.3).  The engine is *functionally* the
ensemble itself (results are bit-identical to software inference) plus
a throughput model:

    tuples/s = clock * engines / cycles_per_tuple   (compute bound)

capped by the host link bandwidth.  The same FPGA runs at different
clocks on different boards -- "Enzian employs the part variant with the
highest speed available" -- which is exactly why Enzian wins Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ...fpga.afu import Afu
from ...fpga.fabric import FabricResources

if TYPE_CHECKING:
    import numpy as np

    from .model import GradientBoostedEnsemble

TUPLE_BYTES = 64  # feature vector + metadata, as in the 64 KB batch setup


@dataclass(frozen=True)
class EnginePlatform:
    """One platform configuration of Figure 9."""

    name: str
    clock_mhz: float
    max_engines: int
    #: Sustained host<->FPGA bandwidth available for streaming (GB/s).
    host_bandwidth_gbps: float

    def __post_init__(self):
        if self.clock_mhz <= 0 or self.max_engines < 1:
            raise ValueError("bad platform parameters")


#: The measured platforms.  Clocks follow the parts used in the papers:
#: HARPv2's Arria-10 at ~200 MHz, F1's VU9P constrained to 150 MHz by
#: the shell, VCU118 at ~250 MHz, and Enzian's -3 speed grade at 300 MHz.
FIGURE9_PLATFORMS: Dict[str, EnginePlatform] = {
    "Harp-v2": EnginePlatform("Harp-v2", clock_mhz=206.0, max_engines=2,
                              host_bandwidth_gbps=12.0),
    "Amazon-F1": EnginePlatform("Amazon-F1", clock_mhz=150.0, max_engines=2,
                                host_bandwidth_gbps=13.0),
    "VCU118": EnginePlatform("VCU118", clock_mhz=256.0, max_engines=2,
                             host_bandwidth_gbps=13.0),
    "Enzian": EnginePlatform("Enzian", clock_mhz=300.0, max_engines=2,
                             host_bandwidth_gbps=22.0),
}

#: Pipeline issue interval: a new tuple enters every N cycles (bounded
#: by tree-level dependent memory lookups).
CYCLES_PER_TUPLE = 6.25


def compute_tuples_per_s(platform: EnginePlatform, engines: int) -> float:
    """Tuples/s that ``engines`` pipelines issue at the platform clock."""
    return platform.clock_mhz * 1e6 * engines / CYCLES_PER_TUPLE


def bandwidth_tuples_per_s(platform: EnginePlatform) -> float:
    """Tuples/s the platform's host link can stream."""
    return platform.host_bandwidth_gbps * 1e9 / 8 / TUPLE_BYTES * 8


def streaming_tuples_per_s(platform: EnginePlatform, engines: int) -> float:
    """Steady-state streaming throughput with double buffering: the
    compute bound, capped by the host link.  A pure function of the
    platform and the engine count, so a serving scenario can price a
    request without an ensemble."""
    return min(compute_tuples_per_s(platform, engines), bandwidth_tuples_per_s(platform))


class GbdtAccelerator(Afu):
    """A loadable AFU wrapping the ensemble with an engine count."""

    def __init__(
        self,
        ensemble: GradientBoostedEnsemble,
        platform: EnginePlatform,
        engines: int = 1,
    ):
        if not 1 <= engines <= platform.max_engines:
            raise ValueError(
                f"{platform.name} supports 1..{platform.max_engines} engines"
            )
        super().__init__(
            name=f"gbdt-{engines}e",
            resources=FabricResources(
                luts=95_000 * engines, ffs=150_000 * engines,
                bram36=220 * engines, dsp=96 * engines,
            ),
            toggle_rate=0.35,
        )
        self.ensemble = ensemble
        self.platform = platform
        self.engines = engines
        self.tuples_processed = 0

    # -- functional path -----------------------------------------------------

    def infer(self, features: np.ndarray) -> np.ndarray:
        """Bit-identical to software inference (the engines walk the
        same flat node arrays)."""
        self.tuples_processed += len(features)
        return self.ensemble.predict(features)

    # -- performance model -----------------------------------------------------

    @property
    def compute_tuples_per_s(self) -> float:
        return compute_tuples_per_s(self.platform, self.engines)

    @property
    def bandwidth_tuples_per_s(self) -> float:
        return bandwidth_tuples_per_s(self.platform)

    @property
    def throughput_tuples_per_s(self) -> float:
        """Steady-state streaming throughput with double buffering."""
        return streaming_tuples_per_s(self.platform, self.engines)

    @property
    def throughput_mtuples_per_s(self) -> float:
        return self.throughput_tuples_per_s / 1e6

    def batch_time_s(self, batch_bytes: int = 64 * 1024) -> float:
        """Time for one saturating batch (the experiment uses 64 KB)."""
        tuples = batch_bytes // TUPLE_BYTES
        return tuples / self.throughput_tuples_per_s

    def host_bandwidth_used_gbps(self) -> float:
        """Streaming bandwidth demand; the paper notes the workload uses
        no more than 4 GB/s, i.e. it is compute bound everywhere."""
        return self.throughput_tuples_per_s * TUPLE_BYTES * 8 / 1e9


def figure9_throughputs(ensemble: GradientBoostedEnsemble) -> Dict[str, Dict[int, float]]:
    """Mtuples/s for every platform and engine count of Figure 9."""
    table: Dict[str, Dict[int, float]] = {}
    for name, platform in FIGURE9_PLATFORMS.items():
        table[name] = {}
        for engines in (1, 2):
            accel = GbdtAccelerator(ensemble, platform, engines=engines)
            table[name][engines] = accel.throughput_mtuples_per_s
    return table
