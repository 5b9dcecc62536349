"""FPGA-side models: fabric, bitstreams, the Coyote shell, and AFUs."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "afu": ("Afu",),
    "scheduler": ("ScheduledApp", "SchedulerError", "TemporalScheduler"),
    "bitstream": ("Bitstream", "ConfigPort", "eci_shell_bitstream"),
    "fabric": ("XCVU9P", "Fabric", "FabricError", "FabricResources", "FpgaPowerParams"),
    "shell": ("PAGE_BYTES", "CoyoteShell", "ShellError", "TranslationFault", "VirtualFpga"),
})
