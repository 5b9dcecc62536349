"""Discrete-event simulation substrate for the Enzian software twin."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "kernel": (
        "AllOf", "AnyOf", "Awaitable", "Event", "Kernel", "Process", "SimulationError", "Timeout",
    ),
    "resources": ("Channel",),
})
