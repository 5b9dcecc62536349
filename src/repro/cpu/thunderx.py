"""The Marvell (Cavium) ThunderX-1 SoC, as configured in Enzian.

48 ARMv8-A cores at 2.0 GHz, four DDR4-2133 channels, two 40 GbE NICs,
on-die accelerators, and the CCPI inter-socket interconnect that ECI
speaks to (§4).  The "networking" CN88xx variant adds a programmable
match-action switch.
"""

from __future__ import annotations

from typing import List

from ..memory.dram import DramConfig, enzian_cpu_dram
from ..params import ThunderXSpec
from .core import InOrderCore


class ThunderXSoC:
    """A live SoC instance: cores plus memory configuration."""

    def __init__(self, spec: ThunderXSpec | None = None, dram: DramConfig | None = None):
        self.spec = spec or ThunderXSpec()
        self.dram = dram or enzian_cpu_dram()
        self.cores: List[InOrderCore] = [
            InOrderCore(self.spec.core, core_id=i) for i in range(self.spec.n_cores)
        ]

    @classmethod
    def from_config(cls, config) -> "ThunderXSoC":
        """Build from a :class:`repro.config.PlatformConfig` tree."""
        return cls(spec=config.cpu, dram=config.memory.cpu_dram)

    def pmu_totals(self) -> dict:
        """Sum PMU counters across all cores."""
        totals: dict = {}
        for core in self.cores:
            for name, value in core.pmu.snapshot().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def reset_pmus(self) -> None:
        for core in self.cores:
            core.pmu.reset()
