"""repro.health -- platform supervision and graceful degradation.

The robustness layer over :mod:`repro.faults`: where the fault
subsystem makes things go *wrong* deterministically, this package makes
the platform stay *degraded-but-correct* -- per-subsystem health state
machines, silent-stall watchdogs, circuit breakers with half-open
probing, lane-renegotiation and power-throttling policies, and a
machine-level recovery orchestrator with a bounded escalation ladder.

The ``health`` section of :class:`repro.config.PlatformConfig`
switches the layer on and seeds its backoff jitter; a
:class:`HealthSupervisor` arms it.  With ``health.enabled = False``
(the default) nothing is constructed and the twin is bit-identical to
a build without this package.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "breaker": ("BreakerState", "CircuitBreaker", "CircuitOpenError"),
    "config": ("HealthConfig",),
    "orchestrator": ("RecoveryOrchestrator",),
    "policy": ("EciDegradationPolicy", "PowerDegradationPolicy"),
    "state": (
        "LEGAL_TRANSITIONS", "STATE_SEVERITY", "HealthError", "HealthState", "HealthStateMachine",
    ),
    "supervisor": ("HealthSupervisor",),
    "watchdog": ("Watchdog", "WatchdogHandle"),
})
