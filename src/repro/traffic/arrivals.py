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

from math import log
from typing import TYPE_CHECKING

from .config import TrafficConfig

if TYPE_CHECKING:
    from ..sim import Kernel


class ArrivalModel:
    """Instantaneous-rate arrival process over a scenario window."""

    def __init__(self, config: TrafficConfig):
        self.config = config
        self.base = config.base_rate_per_ns
        self._flash = config.arrival == "flash"
        if self._flash:
            self.peak = self.base * config.flash_multiplier
        else:
            self.peak = self.base
        # The flash window [flash_at, flash_end) in scenario time.
        self._flash_at = config.flash_at_ns
        self._flash_end = config.flash_at_ns + config.flash_duration_ns
        #: Thinning's acceptance probability outside the flash window;
        #: None where the rate never drops below the peak (``poisson``,
        #: or a flash multiplier of 1), so no candidate needs a draw.
        self._accept = self.base / self.peak if self.base < self.peak else None

    def rate_at(self, t_ns: float) -> float:
        """The instantaneous arrival rate (requests per ns) at ``t``."""
        if self._flash and self._flash_at <= t_ns < self._flash_end:
            return self.peak
        return self.base

    def phase_at(self, t_ns: float) -> str:
        """A label for the scenario phase at ``t`` (latency-series tag)."""
        if self._flash and self._flash_at <= t_ns < self._flash_end:
            return "flash"
        return "steady"

    def phases(self) -> tuple:
        """Every phase label this model can emit (report ordering)."""
        if self._flash:
            return ("steady", "flash")
        return ("steady",)

    def next_gap(self, kernel: "Kernel", t0_ns: float = 0.0) -> float:
        """Draw the gap (ns) to the next arrival, from ``kernel.rng``.

        Thinning against the peak rate: candidate gaps are exponential
        at ``peak``; a candidate landing where the instantaneous rate
        is lower is rejected with the complementary probability and the
        walk continues from there.  A candidate where the rate equals
        the peak is accepted without an acceptance draw.  ``t0_ns`` is
        the scenario start in kernel time: the rate function runs on
        scenario-relative time.

        Each candidate gap is ``-log(1.0 - random()) / peak``: the body
        of ``Random.expovariate(peak)`` (the same in CPython 3.10 to
        3.13), inline, so the RNG stream and every gap match it bit for
        bit.
        """
        random = kernel.rng.random
        peak = self.peak
        accept = self._accept
        flash_at, flash_end = self._flash_at, self._flash_end
        t = kernel.now - t0_ns
        start = t
        while True:
            t += -log(1.0 - random()) / peak
            if accept is None or flash_at <= t < flash_end or random() < accept:
                return t - start
