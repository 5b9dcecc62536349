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

from .breaker import BreakerState, CircuitBreaker, CircuitOpenError
from .config import HealthConfig
from .orchestrator import RecoveryOrchestrator
from .policy import EciDegradationPolicy, PowerDegradationPolicy
from .state import (
    LEGAL_TRANSITIONS,
    STATE_SEVERITY,
    HealthError,
    HealthState,
    HealthStateMachine,
)
from .supervisor import HealthSupervisor
from .watchdog import Watchdog, WatchdogHandle

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "EciDegradationPolicy",
    "HealthConfig",
    "HealthError",
    "HealthState",
    "HealthStateMachine",
    "HealthSupervisor",
    "LEGAL_TRANSITIONS",
    "PowerDegradationPolicy",
    "RecoveryOrchestrator",
    "STATE_SEVERITY",
    "Watchdog",
    "WatchdogHandle",
]
