"""The ``health`` section of the platform configuration tree.

Two settings: the master switch and the seed of the backoff jitter.
The watchdog deadlines, circuit-breaker thresholds, degradation
policies and recovery ladder are module constants where they are read
(:mod:`repro.health.supervisor`, :mod:`repro.health.policy`,
:mod:`repro.health.orchestrator`).  ``enabled`` defaults to False and
the contract is the same as :class:`repro.faults.FaultsConfig`'s: a
disabled health section arms *nothing* -- every hook stays ``None``
and the twin's behaviour (timings, stats, golden traces, benchmark
numbers) is bit-identical to a build without this package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HealthConfig:
    """The ``health`` section of :class:`repro.config.PlatformConfig`."""

    #: Master switch; False (the default) arms nothing at all.
    enabled: bool = False
    #: Seed for the supervisor's deterministic backoff-jitter RNG.
    seed: int = 0x4EA17
