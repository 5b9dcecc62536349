"""The unified platform configuration tree and its named presets.

Enzian's headline claim is *generality*: one board, many configurations
(two-link vs 4-lane bring-up ECI in §4.4, varying DRAM/clock/workload
mixes across the §5 use cases).  :class:`PlatformConfig` makes that
concrete for the software twin: every per-subsystem parameter dataclass
-- ECI link and transfer engine, CPU spec, DRAM, PCIe, TCP/RDMA, FPGA
shell, BMC electricals, workload levels -- aggregated into one
validated root that round-trips through dicts/JSON, takes dotted-path
overrides, and can report how far it has drifted from a preset.

Presets
-------
``full``
    The board the paper measures: 2x12-lane ECI, 128 GiB CPU DRAM,
    512 GiB FPGA DRAM, 300 MHz shell clock.
``bringup_4lane``
    The §4.4 debug configuration: "early debugging of ECI was done
    with 4 lanes rather than the full 24" -- one 4-lane link, the
    64 GiB FPGA DRAM build, a conservative 100 MHz shell clock.
``degraded``
    A partially-failed/raced-down design point: one of the two links
    out of service, tight per-VC receive buffering, reduced transfer
    window, 250 MHz clock.  Exercises the flow-control and
    load-balancing paths the healthy configurations never stress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Tuple

from ..faults.plan import FaultRecoveryConfig, FaultsConfig, FaultSpec
from ..fleet.config import AntiEntropyConfig, FleetConfig
from ..health.config import HealthConfig
from ..params import (
    CpuLoadLevels,
    DdrChannelParams,
    DramConfig,
    EciLinkParams,
    FpgaPowerParams,
    FpgaTcpParams,
    KvsPerformanceParams,
    LinuxTcpParams,
    PcieParams,
    RdmaPathParams,
    RegulatorParams,
    ThunderXSpec,
    TransferEngineParams,
)
from ..traffic.config import GatewayConfig, RequestClassConfig, TrafficConfig
from .schema import (
    ConfigError,
    apply_overrides,
    decode,
    diff,
    encode,
    get_path,
)

__all__ = [
    "AppsConfig",
    "BmcConfig",
    "EciConfig",
    "FaultRecoveryConfig",
    "FaultSpec",
    "FaultsConfig",
    "FleetConfig",
    "FpgaConfig",
    "GatewayConfig",
    "HealthConfig",
    "MemoryConfig",
    "NetConfig",
    "InterconnectConfig",
    "PlatformConfig",
    "RequestClassConfig",
    "TrafficConfig",
    "preset",
    "preset_names",
]


# -- sections --------------------------------------------------------------

@dataclass(frozen=True)
class EciConfig:
    """The coherent interconnect: physical links plus transfer engine."""

    #: How many of the board's links carry traffic (the paper restricts
    #: benchmarks to one of the two links, §5.1).
    links_used: int = 2
    link: EciLinkParams = field(default_factory=EciLinkParams)
    engine: TransferEngineParams = field(default_factory=TransferEngineParams)

    def __post_init__(self):
        if not 1 <= self.links_used <= self.link.links:
            raise ValueError(
                f"links_used must be in 1..{self.link.links}, got {self.links_used}"
            )


@dataclass(frozen=True)
class MemoryConfig:
    """Both nodes' DRAM systems (Figure 4's capacity split)."""

    cpu_dram: DramConfig = field(
        default_factory=lambda: DramConfig(
            channels=4, channel=DdrChannelParams(speed_mt=2133, dimm_gib=32)
        )
    )
    fpga_dram: DramConfig = field(
        default_factory=lambda: DramConfig(
            channels=4, channel=DdrChannelParams(speed_mt=2400, dimm_gib=128)
        )
    )


@dataclass(frozen=True)
class InterconnectConfig:
    """Non-ECI attachment models (the commercial baseline)."""

    pcie: PcieParams = field(default_factory=PcieParams)


@dataclass(frozen=True)
class NetConfig:
    """Network stacks terminating at the FPGA or the kernel."""

    fpga_tcp: FpgaTcpParams = field(default_factory=FpgaTcpParams)
    linux_tcp: LinuxTcpParams = field(default_factory=LinuxTcpParams)
    rdma: RdmaPathParams = field(
        default_factory=lambda: RdmaPathParams("Enzian Host", memory_kind="eci_host")
    )


@dataclass(frozen=True)
class FpgaConfig:
    """The fabric, its shell, and the power model."""

    clock_mhz: float = 300.0
    n_slots: int = 4
    power: FpgaPowerParams = field(default_factory=FpgaPowerParams)

    def __post_init__(self):
        if self.clock_mhz <= 0:
            raise ValueError(f"clock_mhz must be positive, got {self.clock_mhz}")
        if self.n_slots < 1:
            raise ValueError(f"need at least one vFPGA slot, got {self.n_slots}")


@dataclass(frozen=True)
class BmcConfig:
    """The control plane: regulators and telemetry cadence."""

    regulator: RegulatorParams = field(default_factory=RegulatorParams)
    telemetry_sample_period_ms: float = 20.0

    def __post_init__(self):
        if self.telemetry_sample_period_ms <= 0:
            raise ValueError(
                "telemetry_sample_period_ms must be positive, "
                f"got {self.telemetry_sample_period_ms}"
            )


@dataclass(frozen=True)
class AppsConfig:
    """Workload-model knobs used by the evaluation scenarios."""

    cpu_load: CpuLoadLevels = field(default_factory=CpuLoadLevels)
    kvs: KvsPerformanceParams = field(default_factory=KvsPerformanceParams)


# -- the root --------------------------------------------------------------

@dataclass(frozen=True)
class PlatformConfig:
    """One fully-specified design point of the platform.

    The tree aggregates the existing per-subsystem parameter dataclasses
    unchanged -- a ``PlatformConfig`` is *the* argument to
    :class:`repro.platform.EnzianMachine` and the ``from_config``
    constructors across the subsystems, while each dataclass keeps
    working standalone for back-compat.
    """

    #: Name of the preset this configuration started from (provenance).
    preset: str = "full"
    eci: EciConfig = field(default_factory=EciConfig)
    cpu: ThunderXSpec = field(default_factory=ThunderXSpec)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    net: NetConfig = field(default_factory=NetConfig)
    fpga: FpgaConfig = field(default_factory=FpgaConfig)
    bmc: BmcConfig = field(default_factory=BmcConfig)
    apps: AppsConfig = field(default_factory=AppsConfig)
    #: Deterministic fault-injection plan; empty = no machinery armed.
    faults: FaultsConfig = field(default_factory=FaultsConfig)
    #: Supervision & graceful degradation; disabled = no machinery armed.
    health: HealthConfig = field(default_factory=HealthConfig)
    #: Rack-scale fleet topology; acts only once a :class:`repro.fleet.Rack`
    #: is built from it.
    fleet: FleetConfig = field(default_factory=FleetConfig)
    #: Serving front-end & traffic scenario; acts only once a
    #: :class:`repro.traffic.TrafficEngine` is built from it.
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    # -- round trips -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; exact inverse of :meth:`from_dict`."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformConfig":
        """Strictly validated reconstruction.

        Unknown keys and out-of-range values raise :class:`ConfigError`
        with the offending dotted path.
        """
        return decode(cls, data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlatformConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
            raise ConfigError("", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- overrides / reads -------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "PlatformConfig":
        """A new config with dotted-path fields replaced.

        ``cfg.with_overrides({"eci.link.lanes_per_link": 4})`` -- every
        dataclass along each path is rebuilt and revalidated, so an
        override can never produce a config that ``from_dict`` would
        reject.
        """
        return apply_overrides(self, overrides)

    def get(self, path: str) -> Any:
        """Dotted-path read (``cfg.get("eci.link.lane_gbps")``)."""
        return get_path(self, path)

    # -- provenance --------------------------------------------------------

    def diff(self, other: "PlatformConfig") -> Dict[str, Tuple[Any, Any]]:
        """Leaf fields where ``other`` differs: path -> (ours, theirs)."""
        return diff(self, other)

    def deviations(self) -> Dict[str, Tuple[Any, Any]]:
        """Fields deviating from this config's declared preset.

        Returns ``{dotted_path: (preset_value, current_value)}``; empty
        for a pristine preset.  The provenance/diff helper of the
        "same experiment, different design point" workflow.
        """
        base = preset(self.preset)
        out = diff(base, self)
        out.pop("preset", None)
        return out

    def describe(self) -> str:
        """Human-readable provenance summary."""
        deviations = self.deviations()
        if not deviations:
            return f"preset {self.preset!r} (pristine)"
        lines = [f"preset {self.preset!r} with {len(deviations)} override(s):"]
        for path, (base, current) in sorted(deviations.items()):
            lines.append(f"  {path}: {base!r} -> {current!r}")
        return "\n".join(lines)


# -- presets ---------------------------------------------------------------

def _full() -> PlatformConfig:
    return PlatformConfig(preset="full")


def _bringup_4lane() -> PlatformConfig:
    """The §4.4 ECI bring-up configuration."""
    return PlatformConfig(
        preset="bringup_4lane",
        eci=EciConfig(links_used=1, link=EciLinkParams(lanes_per_link=4)),
        memory=MemoryConfig(
            fpga_dram=DramConfig(
                channels=4, channel=DdrChannelParams(speed_mt=2400, dimm_gib=16)
            )
        ),
        fpga=FpgaConfig(clock_mhz=100.0),
    )


def _degraded() -> PlatformConfig:
    """One link down, tight buffering, reduced in-flight window."""
    return PlatformConfig(
        preset="degraded",
        eci=EciConfig(
            links_used=1,
            link=EciLinkParams(policy="fixed", credits_per_vc=8),
            engine=TransferEngineParams(window=16),
        ),
        fpga=FpgaConfig(clock_mhz=250.0),
    )


def _rack8() -> PlatformConfig:
    """An 8-board rack serving the sharded KVS with replication factor
    2 (derived quorums w=2, r=1) -- the fleet demo/bench design point."""
    return PlatformConfig(
        preset="rack8",
        fleet=FleetConfig(machines=8, replication_factor=2),
    )


def _rack_quorum() -> PlatformConfig:
    """A 6-board rack running the partition-tolerant design point:
    replication factor 3, so the derived majority quorums are w=2, r=2
    and a minority partition leaves the majority side both available
    and linearizable (hinted handoff covers the cut-off replica)."""
    return PlatformConfig(
        preset="rack_quorum",
        fleet=FleetConfig(machines=6, replication_factor=3),
    )


def _rack_traffic() -> PlatformConfig:
    """The serving design point: the ``rack_quorum`` fleet driven by a
    million open-loop users with a 10x flash crowd mid-run, gateway
    admission on.  The base rate sits comfortably under one rack's
    capacity; the crowd pushes the offered rate well past it, so the
    run demonstrates what admission control is *for* -- without the
    gateway's token bucket the backend queue grows without bound for
    the whole window and the flash-phase p99 blows through every class
    SLO."""
    return PlatformConfig(
        preset="rack_traffic",
        fleet=FleetConfig(machines=6, replication_factor=3),
        traffic=TrafficConfig(
            users=1_000_000,
            per_user_rps=0.75,
            duration_ns=24_000_000.0,
            arrival="flash",
            flash_at_ns=10_000_000.0,
            flash_duration_ns=6_000_000.0,
            flash_multiplier=10.0,
            gateway=GatewayConfig(admit_rps=1_100_000.0),
        ),
    )


def _chaos_serving() -> PlatformConfig:
    """``rack_traffic`` under attack (``examples/chaos_serving.py``): a
    board killed at 12 ms, inside the flash crowd, and the rack split
    4-vs-2 from 13 to 18 ms.  Hinted handoff is off, so convergence
    after the heal is the job of background anti-entropy passes every
    2 ms, and the gateway carries the chaos kit: a retry budget and
    per-shard circuit breakers."""
    base = _rack_traffic()
    return replace(
        base,
        preset="chaos_serving",
        fleet=replace(
            base.fleet,
            hinted_handoff=False,
            # Fail fast at the KVS client (one attempt, ~60 us worst case)
            # and let the *gateway's* budgeted retries and breakers decide
            # what to do -- a client that retries for 300 us per call holds
            # a backend worker hostage and head-of-line blocks the
            # accelerator classes behind it.
            max_retries=0,
            anti_entropy=AntiEntropyConfig(interval_ns=2_000_000.0),
        ),
        traffic=replace(
            base.traffic,
            gateway=replace(
                base.traffic.gateway,
                # Provision workers for fault stalls: a request stuck on a
                # dying shard occupies its worker for ~120 us before the
                # breaker takes the shard out, and the accelerator classes
                # queue behind it.  3x the fair-weather pool keeps them
                # inside their p99 through the worst transient.
                workers=24,
                retry_budget=0.1,
                retry_limit=1,
                breaker_enabled=True,
                breaker_failures=3,
                breaker_reset_ns=4_000_000.0,
                breaker_probes=1,
            ),
        ),
        faults=FaultsConfig(
            events=(
                FaultSpec("fleet.machine", "kill", at=12_000_000.0, arg="enzian3"),
                FaultSpec(
                    "fleet.partition",
                    "split",
                    at=13_000_000.0,
                    duration=5_000_000.0,
                    arg="enzian0,enzian1,enzian2,enzian3|enzian4,enzian5",
                ),
            )
        ),
    )


_PRESETS: Dict[str, Callable[[], PlatformConfig]] = {
    "full": _full,
    "bringup_4lane": _bringup_4lane,
    "degraded": _degraded,
    "rack8": _rack8,
    "rack_quorum": _rack_quorum,
    "rack_traffic": _rack_traffic,
    "chaos_serving": _chaos_serving,
}


def preset_names() -> list[str]:
    """The available named presets."""
    return list(_PRESETS)


def preset(name: str) -> PlatformConfig:
    """Build a named preset configuration."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            "preset", f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None
    return factory()
