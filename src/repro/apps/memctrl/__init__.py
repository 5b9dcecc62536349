"""The FPGA as a custom memory controller (Figure 10, §5.4)."""

from ..._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "reduction": ("ReductionEngine", "ReductionHomeAgent", "ViewWindow"),
})
