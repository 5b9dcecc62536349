"""FPGA fabric: resources, regions, and the dynamic power model.

The XCVU9P Ultrascale+ is the largest Xilinx part available when Enzian
was designed (§3, "use the largest, and fastest, Xilinx FPGA
available").  The fabric model tracks resource allocation across
reconfigurable regions and estimates dynamic power from the utilized,
toggling area -- which is exactly how the §5.5 stress test works
("switching blocks of flip-flops on every clock cycle", in 1/24-area
steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..params import FpgaPowerParams


@dataclass(frozen=True)
class FabricResources:
    """A bundle of FPGA resources (a part's capacity or a design's cost)."""

    luts: int = 0
    ffs: int = 0
    bram36: int = 0
    dsp: int = 0
    transceivers: int = 0

    def __post_init__(self):
        for name in ("luts", "ffs", "bram36", "dsp", "transceivers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def __add__(self, other: "FabricResources") -> "FabricResources":
        return FabricResources(
            self.luts + other.luts,
            self.ffs + other.ffs,
            self.bram36 + other.bram36,
            self.dsp + other.dsp,
            self.transceivers + other.transceivers,
        )

    def fits_in(self, capacity: "FabricResources") -> bool:
        return (
            self.luts <= capacity.luts
            and self.ffs <= capacity.ffs
            and self.bram36 <= capacity.bram36
            and self.dsp <= capacity.dsp
            and self.transceivers <= capacity.transceivers
        )

    def fraction_of(self, capacity: "FabricResources") -> float:
        """The largest utilization fraction across resource classes."""
        fractions = []
        for name in ("luts", "ffs", "bram36", "dsp", "transceivers"):
            cap = getattr(capacity, name)
            if cap:
                fractions.append(getattr(self, name) / cap)
        return max(fractions) if fractions else 0.0


#: The Xilinx XCVU9P part (DS890): ~1.18M LUTs, 2.36M FFs, 75.9 Mb BRAM,
#: 6840 DSP slices, 120 GTY transceivers.
XCVU9P = FabricResources(
    luts=1_182_240,
    ffs=2_364_480,
    bram36=2_160,
    dsp=6_840,
    transceivers=120,
)


class FabricError(RuntimeError):
    """Over-allocation or invalid region operations."""


@dataclass
class Region:
    """One (re)configurable region of the fabric."""

    name: str
    resources: FabricResources
    toggle_rate: float = 0.125  # fraction of FFs switching per cycle

    def __post_init__(self):
        if not 0.0 <= self.toggle_rate <= 1.0:
            raise ValueError("toggle_rate must be in [0, 1]")


class Fabric:
    """Resource allocator plus power estimator for one FPGA part."""

    def __init__(
        self,
        capacity: FabricResources = XCVU9P,
        power: FpgaPowerParams | None = None,
    ):
        self.capacity = capacity
        self.power_params = power or FpgaPowerParams()
        self.regions: Dict[str, Region] = {}

    @classmethod
    def from_config(cls, config) -> "Fabric":
        """Build from a :class:`repro.config.PlatformConfig` tree."""
        return cls(power=config.fpga.power)

    @property
    def allocated(self) -> FabricResources:
        total = FabricResources()
        for region in self.regions.values():
            total = total + region.resources
        return total

    @property
    def utilization(self) -> float:
        return self.allocated.fraction_of(self.capacity)

    def allocate(
        self, name: str, resources: FabricResources, toggle_rate: float = 0.125
    ) -> Region:
        if name in self.regions:
            raise FabricError(f"region {name!r} already exists")
        if not (self.allocated + resources).fits_in(self.capacity):
            raise FabricError(
                f"region {name!r} does not fit: would exceed part capacity"
            )
        region = Region(name, resources, toggle_rate)
        self.regions[name] = region
        return region

    def release(self, name: str) -> None:
        if name not in self.regions:
            raise FabricError(f"no region {name!r}")
        del self.regions[name]

    def dynamic_power_w(self, clock_mhz: float) -> float:
        """Dynamic power of everything currently configured."""
        p = self.power_params
        total = 0.0
        for region in self.regions.values():
            area = region.resources.fraction_of(self.capacity)
            total += (
                p.dynamic_full_w
                * area
                * region.toggle_rate
                * (clock_mhz / p.reference_mhz)
            )
        return total

    def total_power_w(self, clock_mhz: float) -> float:
        return self.power_params.static_w + self.dynamic_power_w(clock_mhz)
