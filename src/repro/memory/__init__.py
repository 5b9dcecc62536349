"""Memory substrate: address partitioning and DDR4 models."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "address_space": (
        "CPU_NODE", "FPGA_NODE", "AddressSpaceError", "PhysicalAddressSpace", "Region",
        "enzian_address_map",
    ),
    "dram": ("DdrChannelParams", "DramConfig", "enzian_cpu_dram", "enzian_fpga_dram"),
})
