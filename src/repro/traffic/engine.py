"""The traffic engine: drive a rack like production.

:class:`TrafficEngine` wires the pieces together over an existing
:class:`repro.fleet.rack.Rack`:

* an :class:`~repro.traffic.arrivals.ArrivalModel` decides *when*
  requests arrive (Poisson / flash crowd);
* a :class:`~repro.traffic.classes.RequestSampler` decides *what* each
  request is (class mix, key popularity);
* the :class:`~repro.traffic.gateway.Gateway` decides *whether and
  how* it is served (admission, batching, cache, backends).

The load is open loop: one arrival process submits at the model's rate
regardless of completions.  This is the honest way to measure tail
latency under overload (a closed loop self-throttles and hides it).

``run()`` drives the kernel until the scenario drains and returns the
SLO report: per-class and per-phase p50/p99/p999 plus attainment
against each class's ``slo_ns``, read off the merged
``traffic_request_latency_ns`` histograms via the same bucket-exact
rollup machinery the fleet uses.

Every stochastic draw -- gaps, classes, keys -- comes from the
kernel-owned RNG: one seed pins the entire scenario, rejections and
all.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..fleet.rollup import FleetRollup, MergedSeries, merge_histograms
from ..sim import Timeout
from .arrivals import ArrivalModel
from .classes import RequestClass, RequestSampler, build_classes
from .config import TrafficConfig
from .gateway import LATENCY_METRIC, Gateway

#: KVS client ports the gateway attaches to the rack switch (backend
#: workers round-robin across them).
CLIENT_PORTS = 4


class TrafficError(Exception):
    """The traffic section is misconfigured for this scenario."""


class TrafficEngine:
    """One traffic scenario against one rack."""

    def __init__(self, rack, traffic: TrafficConfig, obs=None):
        if not traffic.enabled:
            raise TrafficError(
                "traffic section is disabled; enable it (or use a traffic "
                "preset) before building a TrafficEngine"
            )
        self.rack = rack
        self.traffic = traffic
        self.kernel = rack.kernel
        self.obs = obs if obs is not None else rack.obs
        self.classes: List[RequestClass] = build_classes(traffic)
        self.sampler = RequestSampler(traffic, self.classes)
        self.arrivals = ArrivalModel(traffic)
        self.clients = [rack.client(f"gw{i}") for i in range(CLIENT_PORTS)]
        self.gateway = Gateway(
            self.kernel, traffic.gateway, self.clients, obs=self.obs
        )
        self._t0 = 0.0

    def attach_history(self, recorder) -> None:
        """Record every gateway client's KVS operations into one shared
        :class:`repro.fleet.audit.HistoryRecorder`.

        The engine's backend workers round-robin across
        ``CLIENT_PORTS`` concurrent clients; with one recorder behind
        all of them the scenario produces a genuinely interleaved
        multi-client history that :func:`repro.fleet.audit.check_history`
        can audit for linearizability."""
        for client in self.clients:
            recorder.attach(client)

    # -- source --------------------------------------------------------------

    def _source(self):
        """One arrival process: submit at the model's rate until the
        scenario window closes, independent of completions."""
        kernel = self.kernel
        duration = self.traffic.duration_ns
        t0 = self._t0
        while True:
            gap = self.arrivals.next_gap(kernel, t0)
            if kernel.now + gap - t0 >= duration:
                return
            yield Timeout(gap)
            phase = self.arrivals.phase_at(kernel.now - t0)
            self.gateway.submit(self.sampler.sample(kernel, phase))

    # -- scenario ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the gateway workers and the traffic source."""
        kernel = self.kernel
        self._t0 = kernel.now
        for i in range(self.traffic.gateway.workers):
            kernel.spawn(self.gateway.worker(i), name=f"gw-worker{i}")
        kernel.spawn(self._source(), name="traffic-source")

    def run(self) -> dict:
        """Run the scenario to drain and return the SLO report.

        The kernel's queue empties once arrivals stop and every
        admitted request completes (idle gateway workers wait in the
        gateway's FIFO with no kernel event pending, so they do not hold
        the simulation open).
        """
        self.start()
        self.kernel.run()
        return self.report()

    # -- reporting -----------------------------------------------------------

    def _series_for(
        self, where: Optional[Dict[str, str]] = None
    ) -> Dict[str, MergedSeries]:
        return merge_histograms(
            self.obs, LATENCY_METRIC, group_by="class", where=where
        )

    @staticmethod
    def _summarize(
        merged: MergedSeries, cls: RequestClass
    ) -> dict:
        p99 = merged.percentile(99)
        return {
            "count": merged.count,
            "p50_ns": merged.percentile(50),
            "p99_ns": p99,
            "p999_ns": merged.percentile(99.9),
            "slo_ns": cls.slo_ns,
            "attainment": round(merged.fraction_below(cls.slo_ns), 6),
            "met": bool(merged.count == 0 or p99 <= cls.slo_ns),
        }

    def slo_report(self) -> dict:
        """Per-class and per-phase latency vs. each class's objective.

        ``attainment`` is the conservative fraction of requests whose
        latency bucket finished within the class SLO; ``met`` is the
        headline judgement (p99 within the objective).
        """
        by_class = self._series_for()
        per_class = {}
        for cls in self.classes:
            merged = by_class.get(cls.kind, MergedSeries(LATENCY_METRIC))
            per_class[cls.kind] = self._summarize(merged, cls)
        per_phase: Dict[str, dict] = {}
        for phase in self.arrivals.phases():
            in_phase = self._series_for(where={"phase": phase})
            per_phase[phase] = {
                cls.kind: self._summarize(
                    in_phase.get(cls.kind, MergedSeries(LATENCY_METRIC)),
                    cls,
                )
                for cls in self.classes
            }
        return {"classes": per_class, "phases": per_phase}

    def report(self) -> dict:
        """The scenario's canonical deterministic output document.

        Conservation holds by construction, faults included:
        ``offered == completed + rejected_throttled + rejected_shed +
        errors`` (cache hits complete like any other request and count
        under ``completed``; breaker rejections fold into
        ``rejected_shed`` with their own ``shed_breaker`` sub-counter;
        backend failures that exhaust the retry budget count under
        ``errors``).
        """
        traffic = self.traffic
        gateway = self.gateway
        cache = gateway.cache
        slo = self.slo_report()
        return {
            "scenario": {
                "users": traffic.users,
                "per_user_rps": traffic.per_user_rps,
                "arrival": traffic.arrival,
                "duration_ns": traffic.duration_ns,
                "admission": traffic.gateway.admission,
            },
            "gateway": dict(gateway.stats),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "entries": len(cache),
            },
            "slo": slo,
            "fleet": FleetRollup(self.obs).percentiles((50.0, 99.0)),
            "t_final_ns": self.kernel.now,
        }

    def render(self) -> str:
        """Human-readable SLO table (benchmark-harness style)."""
        from ..analysis.report import render_table

        slo = self.slo_report()
        rows = []
        for kind, summary in slo["classes"].items():
            rows.append(
                [
                    kind,
                    summary["count"],
                    summary["p50_ns"],
                    summary["p99_ns"],
                    summary["p999_ns"],
                    summary["slo_ns"],
                    f"{summary['attainment'] * 100:.2f}%",
                    "yes" if summary["met"] else "NO",
                ]
            )
        for phase, classes in slo["phases"].items():
            for kind, summary in classes.items():
                rows.append(
                    [
                        f"{phase}/{kind}",
                        summary["count"],
                        summary["p50_ns"],
                        summary["p99_ns"],
                        summary["p999_ns"],
                        summary["slo_ns"],
                        f"{summary['attainment'] * 100:.2f}%",
                        "yes" if summary["met"] else "NO",
                    ]
                )
        return render_table(
            ["class", "n", "p50_ns", "p99_ns", "p999_ns", "slo_ns", "attain", "met"],
            rows,
            title="traffic SLO report",
        )
