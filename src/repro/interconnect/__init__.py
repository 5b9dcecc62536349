"""Interconnect performance models: PCIe, ECI, and platform presets."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "base": ("InterconnectModel", "TransferPoint"),
    "eci_adapter": ("EciModel",),
    "pcie": ("PcieModel", "PcieParams", "alveo_u250_pcie", "crossover_size_bytes"),
    "presets": (
        "PlatformSpec", "dual_socket_thunderx_reference", "enzian_covers_survey",
        "survey_platforms",
    ),
})
