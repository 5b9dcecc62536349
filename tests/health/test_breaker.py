"""CircuitBreaker: fail-fast admission control with half-open probing."""

import math

import pytest

from repro.health import BreakerState, CircuitBreaker, CircuitOpenError
from repro.obs import MetricsRegistry


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tripped(clock, **kwargs):
    breaker = CircuitBreaker("net", clock, failure_threshold=3, **kwargs)
    for _ in range(3):
        breaker.record_failure()
    return breaker


def test_opens_after_consecutive_failures():
    clock = _Clock()
    breaker = CircuitBreaker(
        "net", clock, failure_threshold=3, reset_ns=10_000_000.0, half_open_probes=1
    )
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()


def test_success_resets_the_failure_streak():
    clock = _Clock()
    breaker = CircuitBreaker(
        "net", clock, failure_threshold=3, reset_ns=10_000_000.0, half_open_probes=1
    )
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED


def test_check_raises_and_counts_rejections_while_open():
    clock = _Clock()
    obs = MetricsRegistry()
    breaker = CircuitBreaker(
        "net", clock, failure_threshold=1, reset_ns=100.0, half_open_probes=1, obs=obs
    )
    breaker.record_failure()
    with pytest.raises(CircuitOpenError) as err:
        breaker.check()
    assert err.value.breaker_name == "net"
    with pytest.raises(CircuitOpenError):
        breaker.check()
    assert obs.counter("breaker_rejections_total", {"name": "net"}).value == 2


def test_half_open_after_cooldown_then_closes_on_probe_success():
    clock = _Clock()
    breaker = _tripped(clock, reset_ns=100.0, half_open_probes=1)
    clock.now = 50.0
    assert not breaker.allow()
    clock.now = 100.0
    assert breaker.allow()                     # the probe
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow()                 # only one probe admitted
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()


def test_probe_failure_reopens_and_restarts_the_timer():
    clock = _Clock()
    breaker = _tripped(clock, reset_ns=100.0, half_open_probes=1)
    clock.now = 120.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    clock.now = 219.0                          # timer restarted at t=120
    assert not breaker.allow()
    clock.now = 220.0
    assert breaker.allow()


def test_multiple_probes_required_to_close():
    clock = _Clock()
    breaker = _tripped(clock, reset_ns=100.0, half_open_probes=2)
    clock.now = 100.0
    assert breaker.allow()
    assert breaker.allow()
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


def test_guard_wraps_check_and_outcome():
    clock = _Clock()
    breaker = CircuitBreaker(
        "net", clock, failure_threshold=2, reset_ns=10_000_000.0, half_open_probes=1
    )

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        breaker.guard(boom)
    with pytest.raises(ValueError):
        breaker.guard(boom)
    assert breaker.state is BreakerState.OPEN
    with pytest.raises(CircuitOpenError):
        breaker.guard(lambda: 1)
    assert breaker.consecutive_failures == 2


def test_transition_log_is_timed():
    clock = _Clock()
    breaker = _tripped(clock, reset_ns=10.0, half_open_probes=1)
    clock.now = 10.0
    breaker.allow()
    breaker.record_success()
    assert breaker.transitions == [
        (0.0, "open"),
        (10.0, "half_open"),
        (10.0, "closed"),
    ]


def test_parameter_validation():
    clock = _Clock()
    with pytest.raises(ValueError):
        CircuitBreaker("x", clock, failure_threshold=0, reset_ns=100.0, half_open_probes=1)
    for reset_ns in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="reset_ns"):
            CircuitBreaker("x", clock, failure_threshold=1, reset_ns=reset_ns, half_open_probes=1)
    with pytest.raises(ValueError):
        CircuitBreaker("x", clock, failure_threshold=1, reset_ns=100.0, half_open_probes=0)
