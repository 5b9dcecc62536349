"""Machine-level recovery: a bounded, backing-off escalation ladder.

When local recovery (CRC retransmit, rail re-sequencing, stage retry)
was not enough and a subsystem still reports FAILED, the
:class:`RecoveryOrchestrator` escalates the way a real operator -- or
the BMC's supervisor daemon -- would:

1. **component retry** -- run the failed operation again as-is;
2. **subsystem re-init** -- clear latched faults, power the domains
   down, bring everything back up;
3. **BMC re-sequence** -- the big hammer: rebuild the boot orchestrator
   (the BMC rebooting itself) and re-run the full §4.4 sequence.

Each level gets :data:`ATTEMPTS_PER_LEVEL` attempts with exponential
backoff from :data:`BACKOFF_S`; every backoff is stretched by a uniform
jitter of up to :data:`JITTER` drawn from a seeded RNG handed in by
the supervisor, so two runs with the same seed take byte-identical
recovery timelines.  Every attempt and every escalation is counted
through ``repro.obs`` (``recovery_attempts_total{level}``,
``recovery_escalations_total``), which is how a soak report proves the
ladder actually climbed.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from .state import HealthStateMachine

#: Attempts per escalation level before moving up the ladder.
ATTEMPTS_PER_LEVEL = 2
#: Board-clock backoff base between attempts (doubles per attempt).
BACKOFF_S = 0.5
#: Uniform jitter fraction on each backoff.
JITTER = 0.25

#: A ladder: ordered (level-name, action) pairs.  An action returns
#: True on success; a False return or any exception counts as a failed
#: attempt at that level.
Ladder = Sequence[Tuple[str, Callable[[], bool]]]


class RecoveryOrchestrator:
    """Runs an escalation ladder against a board clock."""

    def __init__(
        self,
        clock,
        rng: Optional[random.Random] = None,
        health: Optional[HealthStateMachine] = None,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.clock = clock
        self.rng = rng if rng is not None else random.Random(0)
        self.health = health
        self.obs = obs if obs is not None else NULL_REGISTRY
        #: Every attempt, as ``level:attempt`` strings in execution order.
        self.steps: List[str] = []
        self.last_error: Optional[BaseException] = None

    def _backoff(self, attempt: int) -> float:
        delay = BACKOFF_S * (2 ** (attempt - 1))
        return delay * (1.0 + JITTER * self.rng.random())

    def run(self, ladder: Ladder) -> bool:
        """Climb the ladder; True as soon as any attempt succeeds."""
        if self.health is not None:
            self.health.recovering("escalation ladder engaged")
        for index, (level, action) in enumerate(ladder):
            for attempt in range(1, ATTEMPTS_PER_LEVEL + 1):
                self.steps.append(f"{level}:{attempt}")
                if self.obs:
                    self.obs.counter(
                        "recovery_attempts_total", {"level": level}
                    ).inc()
                try:
                    if action():
                        if self.health is not None:
                            self.health.recover(f"{level} attempt {attempt}")
                        return True
                    self.last_error = None
                except Exception as exc:  # typed errors from the subsystems
                    self.last_error = exc
                self.clock.advance(self._backoff(attempt))
            if index + 1 < len(ladder):
                if self.obs:
                    self.obs.counter("recovery_escalations_total").inc()
                if self.health is not None:
                    # Re-enter RECOVERING is a no-op; log the escalation.
                    self.health.recovering(f"escalating past {level}")
        if self.health is not None:
            self.health.fail("escalation ladder exhausted")
        return False
