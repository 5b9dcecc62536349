"""Gradient-boosted decision-tree inference (the §5.3 workload).

The package exports the engine and its Figure-9 throughput model, which
need no numpy.  The ensemble itself is in :mod:`.model`; import it from
there.
"""

from ..._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "accel": (
        "CYCLES_PER_TUPLE", "FIGURE9_PLATFORMS", "EnginePlatform", "GbdtAccelerator",
        "figure9_throughputs",
    ),
})
