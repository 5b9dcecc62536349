"""Platform assembly: the complete Enzian machine."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "enzian": ("EnzianMachine", "figure12_phases", "run_figure12"),
})
