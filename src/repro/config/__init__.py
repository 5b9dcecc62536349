"""repro.config: the unified platform configuration tree.

One validated root (:class:`PlatformConfig`) aggregates every
per-subsystem parameter dataclass; named presets capture the paper's
design points; dotted-path overrides and the sweep runner turn "run the
same experiment at a different design point" into data, not code.

    from repro.config import preset, run_sweep

    cfg = preset("bringup_4lane").with_overrides({"fpga.clock_mhz": 150.0})
    print(cfg.describe())
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "schema": ("ConfigError",),
    "sweep": ("SweepPoint", "SweepResult", "expand_grid", "run_sweep", "sweep_table"),
    "tree": (
        "AppsConfig", "BmcConfig", "EciConfig", "FaultRecoveryConfig", "FaultSpec", "FaultsConfig",
        "FleetConfig", "FpgaConfig", "GatewayConfig", "HealthConfig", "InterconnectConfig",
        "MemoryConfig", "NetConfig", "PlatformConfig", "RequestClassConfig", "TrafficConfig",
        "preset", "preset_names",
    ),
})
