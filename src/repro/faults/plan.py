"""The fault plan: a typed, validated description of a fault campaign.

Bring-up on the real board is a parade of partial failures -- ECI links
that train at 4 of 24 lanes (§4.4), regulators that trip OCP mid
sequence (§4.2/§4.3), firmware stages that hang on a dead NUMA node.
:class:`FaultsConfig` makes those perturbations *data*: a tuple of
:class:`FaultSpec` entries, each naming an injection site, a fault
kind, and when/how often it fires.  The plan lives in the ``faults``
section of :class:`repro.config.PlatformConfig`, so a fault campaign is
configured, overridden, swept, and serialized exactly like any other
design-point parameter.

Every schedule decision is deterministic: one-shot faults fire at a
fixed simulated time (or board time), and rate-based faults draw from
the simulation kernel's single seeded RNG.  Identical seeds therefore
give identical fault traces.

Sites and kinds
---------------
============  =====================================  ==========================
site          kinds                                  arg / value meaning
============  =====================================  ==========================
eci.link      bit_flip, crc_storm, lane_drop,        arg: link index;
              degraded_lane                          value: lanes after drop
net           drop, duplicate, reorder               rate over [at, at+duration)
bmc.rail      ocp, ovp, otp, brownout                arg: rail name
telemetry     glitch                                 arg: domain label;
                                                     value: amps multiplier
boot.stage    hang, fail                             arg: stage name
fleet.machine kill                                   arg: machine name
fleet.partition split, oneway                        arg: port groups; window
                                                     [at, at+duration)
============  =====================================  ==========================

``degraded_lane`` models marginal lanes: a *persistent* stochastic CRC
error rate switched on at ``at`` and never off -- the error source only
goes away when the health layer renegotiates the link down (dropping
the marginal lanes) or the run ends.  ``brownout`` trips VIN_UV, the
one rail fault the power degradation policy may absorb into throttled
operation instead of a shutdown.

``fleet.partition`` splits a rack switch's ports into named groups for
the window ``[at, at + duration)``.  ``arg`` lists the groups:
``"enzian0,enzian1|enzian2,enzian3"`` (a symmetric ``split``: all
cross-group frames dropped both ways) or ``"enzian0,enzian1>enzian2"``
(a ``oneway`` failure: only left-to-right frames dropped).  Hosts not
named in any group -- late-attached clients, typically -- ride with the
first group, which is by convention the majority/controller side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

#: Legal fault kinds per injection site.
SITE_KINDS: Dict[str, FrozenSet[str]] = {
    "eci.link": frozenset({"bit_flip", "crc_storm", "lane_drop", "degraded_lane"}),
    "net": frozenset({"drop", "duplicate", "reorder"}),
    "bmc.rail": frozenset({"ocp", "ovp", "otp", "brownout"}),
    "telemetry": frozenset({"glitch"}),
    "boot.stage": frozenset({"hang", "fail"}),
    "fleet.machine": frozenset({"kill"}),
    "fleet.partition": frozenset({"split", "oneway"}),
}


def parse_partition_groups(arg: str, kind: str) -> Tuple[Tuple[str, ...], ...]:
    """Parse a ``fleet.partition`` group spec into host-name groups.

    ``split`` uses ``|`` between groups (two or more); ``oneway`` uses a
    single ``>`` (exactly two: frames left -> right are dropped).
    Group members are comma-separated, must be non-empty, and may not
    appear in more than one group.
    """
    separator = ">" if kind == "oneway" else "|"
    raw_groups = arg.split(separator)
    if kind == "oneway" and len(raw_groups) != 2:
        raise ValueError(
            f"oneway partition arg needs exactly one '>' separator, got {arg!r}"
        )
    if len(raw_groups) < 2:
        raise ValueError(
            f"partition arg needs at least two '{separator}'-separated groups, "
            f"got {arg!r}"
        )
    groups = []
    seen: set = set()
    for raw in raw_groups:
        members = tuple(sorted({m.strip() for m in raw.split(",") if m.strip()}))
        if not members:
            raise ValueError(f"partition arg has an empty group: {arg!r}")
        overlap = seen.intersection(members)
        if overlap:
            raise ValueError(
                f"partition arg names {sorted(overlap)} in more than one group: {arg!r}"
            )
        seen.update(members)
        groups.append(members)
    return tuple(groups)

#: Sites whose ``at`` is measured on the board clock (seconds); the
#: rest use simulation time (nanoseconds).
BOARD_CLOCK_SITES = frozenset({"bmc.rail", "telemetry", "boot.stage"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled injection against a named site.

    ``at`` is a not-before time: simulated nanoseconds for the
    event-kernel sites (``eci.link``, ``net``), board-clock seconds for
    the control-plane sites.  ``count`` bounds how many times the fault
    fires (rate-based kinds instead use ``rate`` over the window
    ``[at, at + duration)``).
    """

    site: str
    kind: str
    at: float = 0.0
    count: int = 1
    rate: float = 0.0
    duration: float = 0.0
    arg: str = ""
    value: float = 0.0

    def __post_init__(self):
        kinds = SITE_KINDS.get(self.site)
        if kinds is None:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {', '.join(sorted(SITE_KINDS))}"
            )
        if self.kind not in kinds:
            raise ValueError(
                f"site {self.site!r} has no fault kind {self.kind!r}; "
                f"known: {', '.join(sorted(kinds))}"
            )
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if self.site == "bmc.rail" and not self.arg:
            raise ValueError("bmc.rail faults need arg=<rail name>")
        if self.site == "boot.stage" and not self.arg:
            raise ValueError("boot.stage faults need arg=<stage name>")
        if self.site == "fleet.machine" and not self.arg:
            raise ValueError("fleet.machine faults need arg=<machine name>")
        if self.site == "fleet.partition":
            if not self.arg:
                raise ValueError(
                    "fleet.partition faults need arg=<group spec> "
                    "(e.g. 'enzian0,enzian1|enzian2')"
                )
            if self.duration <= 0:
                raise ValueError(
                    "fleet.partition faults need duration > 0 (the heal time)"
                )
            parse_partition_groups(self.arg, self.kind)  # syntax check
        if self.kind == "lane_drop" and not self.value >= 1:
            raise ValueError("lane_drop needs value=<lanes remaining> >= 1")
        if self.kind in ("crc_storm", "degraded_lane", "drop", "duplicate", "reorder"):
            if self.rate <= 0:
                raise ValueError(f"{self.kind} needs a positive rate")

    def describe(self) -> str:
        extra = f" {self.arg}" if self.arg else ""
        return f"{self.site}/{self.kind}{extra} @ {self.at:g}"


@dataclass(frozen=True)
class FaultRecoveryConfig:
    """Recovery-policy knobs for the control-plane subsystems.

    The link- and net-layer recovery parameters live with their own
    parameter dataclasses (:class:`repro.eci.link.EciLinkParams`,
    :class:`repro.net.reliable.ReliableSender`); the power manager and
    boot orchestrator have no parameter dataclass of their own, so
    their policies live here.
    """

    #: Re-sequence attempts after a rail faults mid bring-up.  The
    #: default 0 keeps the historical fail-fast behaviour: recovery is
    #: opt-in, so a plain machine still surfaces a tripped rail as an
    #: immediate error.
    max_resequence_attempts: int = 0
    #: Board-clock backoff between re-sequence attempts (doubles per try).
    resequence_backoff_s: float = 0.25
    #: Retries per firmware boot stage before the boot is abandoned
    #: (0 = fail-fast, as above).
    max_stage_retries: int = 0
    #: Board time a hung stage burns before it is declared failed.
    stage_timeout_s: float = 5.0

    def __post_init__(self):
        if self.max_resequence_attempts < 0:
            raise ValueError("max_resequence_attempts must be non-negative")
        # Written so that NaN fails too, as in PowerManager.
        if not 0 <= self.resequence_backoff_s < math.inf:
            raise ValueError("resequence_backoff_s must be non-negative and finite")
        if self.max_stage_retries < 0:
            raise ValueError("max_stage_retries must be non-negative")
        if not 0 < self.stage_timeout_s < math.inf:
            raise ValueError("stage_timeout_s must be positive and finite")


@dataclass(frozen=True)
class FaultsConfig:
    """The ``faults`` section of the platform configuration tree.

    An empty ``events`` tuple means *no fault machinery is armed at
    all*: every hook stays ``None`` and the twin's behaviour (and every
    benchmark number) is bit-identical to a build without this module.
    """

    #: Seed for the kernel RNG during fault runs (rate-based draws).
    seed: int = 0xFA17
    events: Tuple[FaultSpec, ...] = ()
    recovery: FaultRecoveryConfig = field(default_factory=FaultRecoveryConfig)

    def __post_init__(self):
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    @property
    def enabled(self) -> bool:
        return bool(self.events)

    def for_site(self, site: str) -> Tuple[FaultSpec, ...]:
        return tuple(e for e in self.events if e.site == site)

    def kinds(self) -> FrozenSet[str]:
        """Distinct fault kinds this plan injects."""
        return frozenset(e.kind for e in self.events)
