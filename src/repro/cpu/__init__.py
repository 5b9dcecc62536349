"""CPU-side models: caches, cores, PMU, and the ThunderX-1 SoC."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "caches": ("CacheGeometry", "SetAssociativeCache"),
    "core": ("CoreParams", "ExecutionResult", "InOrderCore", "WorkloadSlice"),
    "matchaction": ("Action", "Match", "MatchActionTable", "Rule", "Verdict"),
    "pmu": ("PmuCounters", "PmuReport"),
    "thunderx": ("ThunderXSoC", "ThunderXSpec"),
})
