"""Enzian's DDR4 memory systems (the channel model is in :mod:`repro.params`).

Enzian has four DDR4-2133 channels on the CPU (128 GiB) and four
DDR4-2400 channels on the FPGA (512 GiB in the systems the paper
measures), one DIMM per channel -- the "favor bandwidth over capacity"
design principle (§3).
"""

from __future__ import annotations

from ..params import DdrChannelParams, DramConfig


def enzian_cpu_dram() -> DramConfig:
    """4x DDR4-2133, 128 GiB (Figure 4)."""
    return DramConfig(channels=4, channel=DdrChannelParams(speed_mt=2133, dimm_gib=32))


def enzian_fpga_dram(capacity_gib: int = 512) -> DramConfig:
    """4x DDR4-2400 on the FPGA; 512 GiB or 64 GiB builds exist (Figure 4)."""
    if capacity_gib % 4 != 0:
        raise ValueError("capacity must split across 4 channels")
    return DramConfig(
        channels=4,
        channel=DdrChannelParams(speed_mt=2400, dimm_gib=capacity_gib // 4),
    )
