"""Circuit breakers with half-open probing for the net paths.

The classic serving-stack pattern (the shape every disaggregation /
remote-memory design in PAPERS.md assumes at its endpoints): a path
that keeps failing is *opened* so callers fail fast instead of burning
retry budget against a dead peer; after a cool-down the breaker admits
a bounded number of *probes* (HALF_OPEN) and either closes on success
or re-opens on the first probe failure.

Time comes from a caller-supplied clock (kernel ``now`` for the net
paths, board clock for control-plane users), so breaker behaviour is
exactly as deterministic as the simulation driving it.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, List, Tuple


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitOpenError(ConnectionError):
    """The call was rejected because the path's breaker is open."""

    def __init__(self, name: str, until: float):
        super().__init__(f"circuit {name!r} open (probe after t={until:g})")
        self.breaker_name = name
        self.until = until


class CircuitBreaker:
    """Failure accounting and admission control for one path."""

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        failure_threshold: int,
        reset_ns: float,
        half_open_probes: int,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if not 0 < reset_ns < math.inf:
            raise ValueError(f"reset_ns must be positive and finite, got {reset_ns}")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_ns = reset_ns
        self.half_open_probes = half_open_probes
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        #: Transition log: (time, state-name).
        self.transitions: List[Tuple[float, str]] = []

    # -- state changes -------------------------------------------------------

    def _set_state(self, state: BreakerState) -> None:
        if state is self.state:
            return
        self.state = state
        self.transitions.append((self.clock(), state.value))
        if self.obs:
            self.obs.counter(
                "breaker_transitions_total",
                {"name": self.name, "to": state.value},
            ).inc()

    # -- admission -----------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?  (Advances OPEN -> HALF_OPEN.)"""
        if self.state is BreakerState.CLOSED:
            return True
        now = self.clock()
        if self.state is BreakerState.OPEN:
            if now - self._opened_at < self.reset_ns:
                return False
            self._set_state(BreakerState.HALF_OPEN)
            self._probes_in_flight = 0
            self._probe_successes = 0
        # HALF_OPEN: admit a bounded number of probes.
        if self._probes_in_flight < self.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow():
            if self.obs:
                self.obs.counter(
                    "breaker_rejections_total", {"name": self.name}
                ).inc()
            raise CircuitOpenError(self.name, self._opened_at + self.reset_ns)

    # -- outcome reporting ---------------------------------------------------

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._set_state(BreakerState.CLOSED)
        elif self.state is BreakerState.OPEN:
            # A success from a call admitted before the trip: ignore.
            pass

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # A probe failed: straight back to OPEN, timer restarts.
            self._opened_at = self.clock()
            self._set_state(BreakerState.OPEN)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self.clock()
            self._set_state(BreakerState.OPEN)

    # -- checkpoint/restore (repro.snap) -------------------------------------

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "opened_at": self._opened_at,
            "probes_in_flight": self._probes_in_flight,
            "probe_successes": self._probe_successes,
            "transitions": [list(entry) for entry in self.transitions],
        }

    def restore_state(self, state: dict) -> None:
        self.state = BreakerState(state["state"])
        self.consecutive_failures = state["consecutive_failures"]
        self._opened_at = state["opened_at"]
        self._probes_in_flight = state["probes_in_flight"]
        self._probe_successes = state["probe_successes"]
        self.transitions = [tuple(entry) for entry in state["transitions"]]

    # -- wrapping ------------------------------------------------------------

    def guard(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under the breaker: check, call, record outcome."""
        self.check()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, {self.state.value})"
