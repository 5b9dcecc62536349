"""RecoveryOrchestrator: the bounded escalation ladder."""

import random

import pytest

from repro.bmc.regulators import BoardClock
from repro.health import HealthState, HealthStateMachine, RecoveryOrchestrator
from repro.health.orchestrator import ATTEMPTS_PER_LEVEL, BACKOFF_S, JITTER
from repro.obs import MetricsRegistry


def _orchestrator(obs=None, health=None, seed=17):
    clock = BoardClock()
    orchestrator = RecoveryOrchestrator(
        clock,
        rng=random.Random(seed),
        health=health,
        obs=obs,
    )
    return orchestrator, clock


def test_success_at_first_level_stops_the_climb():
    health = HealthStateMachine("machine")
    health.fail("boot crashed")
    orchestrator, _ = _orchestrator(health=health)
    calls = []
    ladder = [
        ("component-retry", lambda: calls.append("retry") or True),
        ("subsystem-reinit", lambda: calls.append("reinit") or True),
    ]
    assert orchestrator.run(ladder) is True
    assert calls == ["retry"]
    assert orchestrator.steps == ["component-retry:1"]
    assert health.state is HealthState.HEALTHY


def test_escalation_climbs_levels_and_counts():
    obs = MetricsRegistry()
    health = HealthStateMachine("machine", obs=obs)
    health.fail("boot crashed")
    orchestrator, _ = _orchestrator(obs=obs, health=health)
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        return attempts["n"] >= 2                # succeeds on 2nd level, 2nd try

    ladder = [
        ("component-retry", lambda: False),
        ("subsystem-reinit", flaky),
    ]
    assert orchestrator.run(ladder) is True
    assert orchestrator.steps == [
        "component-retry:1",
        "component-retry:2",
        "subsystem-reinit:1",
        "subsystem-reinit:2",
    ]
    assert (
        obs.counter(
            "recovery_attempts_total", {"level": "component-retry"}
        ).value
        == 2
    )
    assert obs.counter("recovery_escalations_total").value == 1
    assert health.state is HealthState.HEALTHY


def test_exhausted_ladder_returns_false_and_fails_health():
    health = HealthStateMachine("machine")
    health.fail("boot crashed")
    orchestrator, _ = _orchestrator(health=health)
    ladder = [("only-level", lambda: False)]
    assert orchestrator.run(ladder) is False
    assert orchestrator.steps == ["only-level:1", "only-level:2"]
    assert health.state is HealthState.FAILED


def test_exception_counts_as_a_failed_attempt():
    orchestrator, _ = _orchestrator()

    def boom():
        raise RuntimeError("rail still shorted")

    assert orchestrator.run([("component-retry", boom)]) is False
    assert isinstance(orchestrator.last_error, RuntimeError)
    assert len(orchestrator.steps) == 2


def test_backoff_timeline_is_deterministic_per_seed():
    def timeline(seed):
        orchestrator, clock = _orchestrator(seed=seed)
        orchestrator.run([("a", lambda: False), ("b", lambda: False)])
        return clock.now_s

    assert timeline(17) == timeline(17)
    assert timeline(17) != timeline(18)          # jitter actually draws


def test_backoff_without_jitter_is_pure_exponential():
    """Divided by its jitter factor (one seeded draw per attempt), each
    backoff is BACKOFF_S doubled per attempt."""
    orchestrator, clock = _orchestrator(seed=17)
    orchestrator.run([("a", lambda: False)])
    rng = random.Random(17)
    expected = sum(
        BACKOFF_S * 2 ** (attempt - 1) * (1.0 + JITTER * rng.random())
        for attempt in range(1, ATTEMPTS_PER_LEVEL + 1)
    )
    # 0.5 s and 1 s of exponential backoff, each stretched by its draw.
    assert clock.now_s == pytest.approx(expected)
    assert BACKOFF_S * 3 < clock.now_s < BACKOFF_S * 3 * (1.0 + JITTER)
