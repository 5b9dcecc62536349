"""CPU-side models: cores, PMU, and the ThunderX-1 SoC.

The cache geometry the SoC spec carries is a hardware parameter record,
:class:`repro.params.CacheGeometry`.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "core": ("CoreParams", "ExecutionResult", "InOrderCore", "WorkloadSlice"),
    "pmu": ("PmuCounters", "PmuReport"),
    "thunderx": ("ThunderXSoC", "ThunderXSpec"),
})
