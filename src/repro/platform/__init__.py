"""Platform assembly: the complete Enzian machine."""

from .enzian import EnzianMachine, figure12_phases, run_figure12

__all__ = ["EnzianMachine", "figure12_phases", "run_figure12"]
