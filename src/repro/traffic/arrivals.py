"""Arrival-process models: Poisson and flash crowd.

Both are Poisson processes described by an instantaneous rate function
``rate(t)`` over the scenario window: flat for ``poisson``, a step for
``flash``.  Gaps are drawn by Lewis-Shedler *thinning*: candidate gaps
come from a homogeneous process at the peak rate, and each candidate is
accepted with probability ``rate(t)/peak`` -- exact for any bounded
rate function, and deterministic because every draw comes from the
kernel-owned RNG (one seed pins the whole arrival trace).

The model also labels simulation time with a *phase* ("steady" or
"flash"), which the engine stamps onto each request's latency series
-- that is what lets the SLO report show the flash-crowd window
separately from the calm before it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .config import TrafficConfig

if TYPE_CHECKING:
    from ..sim import Kernel


class ArrivalModel:
    """Instantaneous-rate arrival process over a scenario window."""

    def __init__(self, config: TrafficConfig):
        self.config = config
        self.base = config.base_rate_per_ns
        if config.arrival == "flash":
            self.peak = self.base * config.flash_multiplier
        else:
            self.peak = self.base

    def rate_at(self, t_ns: float) -> float:
        """The instantaneous arrival rate (requests per ns) at ``t``."""
        cfg = self.config
        if cfg.arrival == "poisson":
            return self.base
        # flash
        if cfg.flash_at_ns <= t_ns < cfg.flash_at_ns + cfg.flash_duration_ns:
            return self.base * cfg.flash_multiplier
        return self.base

    def phase_at(self, t_ns: float) -> str:
        """A label for the scenario phase at ``t`` (latency-series tag)."""
        cfg = self.config
        if cfg.arrival == "flash":
            in_window = (
                cfg.flash_at_ns <= t_ns < cfg.flash_at_ns + cfg.flash_duration_ns
            )
            return "flash" if in_window else "steady"
        return "steady"

    def phases(self) -> tuple:
        """Every phase label this model can emit (report ordering)."""
        if self.config.arrival == "flash":
            return ("steady", "flash")
        return ("steady",)

    def next_gap(self, kernel: "Kernel", t0_ns: float = 0.0) -> float:
        """Draw the gap (ns) to the next arrival, from ``kernel.rng``.

        Thinning against the peak rate: candidate gaps are exponential
        at ``peak``; a candidate landing where the instantaneous rate
        is lower is rejected with the complementary probability and the
        walk continues from there.  ``t0_ns`` is the scenario start in
        kernel time: the rate function runs on scenario-relative time.
        """
        rng = kernel.rng
        t = kernel.now - t0_ns
        start = t
        while True:
            t += rng.expovariate(self.peak)
            rate = self.rate_at(t)
            if rate >= self.peak or rng.random() < rate / self.peak:
                return t - start
