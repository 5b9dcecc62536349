"""Runtime verification on the FPGA (§6): past-time LTL monitors."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "logic": (
        "And", "Atom", "Formula", "Historically", "Not", "Once", "Or", "Since", "Yesterday", "atom",
        "evaluate_trace",
    ),
    "monitor": ("Monitor", "TraceUnit", "check_response", "estimate_resources"),
})
