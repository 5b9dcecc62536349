"""Boot substrate: BDK diagnostics, firmware chain, device tree, orchestration."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "bdk": ("Bdk", "BdkResult", "EciLinkState", "MemoryFault", "SimulatedDram"),
    "devicetree": (
        "EnzianTopology", "NumaNodeDesc", "enzian_topology", "parse_numa_nodes", "render_dts",
    ),
    "firmware": ("BootError", "BootRecord", "BootStage", "FirmwareChain", "standard_stages"),
    "sequence": ("BootOrchestrator", "BootTimeline"),
})
