"""Fleet-wide metrics rollups: merge per-machine histograms into
rack-level percentiles.

Every fleet request lands in a ``fleet_request_latency_ns{op,machine}``
histogram (log-bucketed, shared bucket layout per metric).  Because the
buckets of every series of one metric share the same base, merging is
exact at bucket granularity: counts add per bound.  Percentiles are
then read off the merged cumulative distribution as the upper bound of
the bucket where the cumulative count crosses the quantile -- the
standard conservative estimate, deterministic and exportable.

:class:`FleetRollup` produces three views of one registry: the rack
aggregate, per-machine (per-shard -- a machine *is* the primary of the
shards it owns), and per-op, plus a plain-dict form whose JSON is the
fleet determinism fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import Histogram, MetricsRegistry


@dataclass
class MergedSeries:
    """Bucket-exact merge of one or more same-layout histograms."""

    name: str
    buckets: Dict[float, int] = field(default_factory=dict)
    count: int = 0
    sum: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def absorb(self, histogram: Histogram) -> None:
        for bound, n in histogram.buckets():
            self.buckets[bound] = self.buckets.get(bound, 0) + n
        self.count += histogram.count
        self.sum += histogram.sum
        if histogram.min is not None:
            self.min = (
                histogram.min if self.min is None else min(self.min, histogram.min)
            )
        if histogram.max is not None:
            self.max = (
                histogram.max if self.max is None else max(self.max, histogram.max)
            )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket where the CDF crosses ``q`` (0..100)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in 0..100, got {q}")
        if self.count == 0:
            return 0.0
        threshold = q / 100.0 * self.count
        cumulative = 0
        for bound, n in sorted(self.buckets.items()):
            cumulative += n
            if cumulative >= threshold:
                return bound
        return sorted(self.buckets)[-1]

    def fraction_below(self, bound_ns: float) -> float:
        """Fraction of observations whose bucket upper bound is within
        ``bound_ns`` -- the conservative SLO-attainment estimate (an
        observation whose bucket straddles the bound counts as over)."""
        if self.count == 0:
            return 1.0
        within = sum(
            n for bound, n in self.buckets.items() if bound <= bound_ns
        )
        return within / self.count

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "buckets": [[bound, n] for bound, n in sorted(self.buckets.items())],
        }


def _series(registry: MetricsRegistry, name: str) -> List[Histogram]:
    return [
        m
        for m in registry.metrics()
        if isinstance(m, Histogram) and m.name == name
    ]


def merge_histograms(
    registry: MetricsRegistry,
    name: str,
    group_by: Optional[str] = None,
    where: Optional[Dict[str, str]] = None,
) -> Dict[str, MergedSeries]:
    """Merge every series of ``name``, grouped by one label's value.

    ``group_by=None`` merges everything into a single ``"rack"`` group.
    Series missing the label land in the ``""`` group.  ``where``
    restricts the merge to series whose labels match every given
    key/value pair (the traffic SLO report uses it to split one
    metric by scenario phase before grouping by class).
    """
    groups: Dict[str, MergedSeries] = {}
    for histogram in _series(registry, name):
        if where and any(
            histogram.labels.get(k) != v for k, v in where.items()
        ):
            continue
        key = "rack" if group_by is None else histogram.labels.get(group_by, "")
        merged = groups.get(key)
        if merged is None:
            merged = groups[key] = MergedSeries(name)
        merged.absorb(histogram)
    return groups


class FleetRollup:
    """Rack / per-machine / per-op views of the fleet latency metric."""

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str = "fleet_request_latency_ns",
    ):
        self.registry = registry
        self.name = name

    def rack(self) -> MergedSeries:
        merged = merge_histograms(self.registry, self.name)
        return merged.get("rack", MergedSeries(self.name))

    def per_machine(self) -> Dict[str, MergedSeries]:
        return merge_histograms(self.registry, self.name, group_by="machine")

    def per_op(self) -> Dict[str, MergedSeries]:
        return merge_histograms(self.registry, self.name, group_by="op")

    def percentiles(self, qs: Tuple[float, ...] = (50.0, 99.0)) -> Dict[str, float]:
        rack = self.rack()
        return {f"p{q:g}": rack.percentile(q) for q in qs}

    def to_dict(self) -> dict:
        """Deterministic plain-dict rollup (the fleet's golden output)."""
        return {
            "metric": self.name,
            "rack": self.rack().to_dict(),
            "per_machine": {
                k: v.to_dict() for k, v in sorted(self.per_machine().items())
            },
            "per_op": {k: v.to_dict() for k, v in sorted(self.per_op().items())},
        }
