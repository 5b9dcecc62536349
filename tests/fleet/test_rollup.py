"""Bucket-exact histogram merging and the rack-level percentile views."""

import json

import pytest

from repro.fleet.rollup import FleetRollup, MergedSeries, merge_histograms
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.fleet

METRIC = "fleet_request_latency_ns"


def _registry_with_series():
    obs = MetricsRegistry()
    samples = {
        ("put", "enzian0"): [1_000.0, 2_000.0, 4_000.0],
        ("put", "enzian1"): [1_500.0, 80_000.0],
        ("get", "enzian0"): [900.0, 950.0, 1_000.0, 1_100.0],
    }
    for (op, machine), values in samples.items():
        h = obs.histogram(METRIC, {"op": op, "machine": machine}, base=1.25)
        for v in values:
            h.observe(v)
    return obs, samples


def test_merge_is_bucket_exact():
    obs, samples = _registry_with_series()
    merged = merge_histograms(obs, METRIC)["rack"]
    n = sum(len(v) for v in samples.values())
    total = sum(sum(v) for v in samples.values())
    assert merged.count == n
    assert merged.sum == pytest.approx(total)
    assert merged.min == 900.0
    assert merged.max == 80_000.0
    # Every merged bucket count is exactly the sum of the per-series
    # counts at that bound (same log base => same layout).
    series = [
        dict(h.buckets())
        for h in obs.metrics()
        if getattr(h, "name", "") == METRIC and hasattr(h, "buckets")
    ]
    for bound, count in merged.buckets.items():
        assert count == sum(s.get(bound, 0) for s in series)


def test_group_by_label():
    obs, _ = _registry_with_series()
    by_machine = merge_histograms(obs, METRIC, group_by="machine")
    assert set(by_machine) == {"enzian0", "enzian1"}
    assert by_machine["enzian0"].count == 7
    assert by_machine["enzian1"].count == 2
    by_op = merge_histograms(obs, METRIC, group_by="op")
    assert by_op["put"].count == 5
    assert by_op["get"].count == 4


def test_percentile_reads_the_cdf_crossing():
    series = MergedSeries("m", buckets={10.0: 5, 100.0: 4, 1000.0: 1}, count=10)
    assert series.percentile(50) == 10.0
    assert series.percentile(90) == 100.0
    assert series.percentile(99) == 1000.0
    assert series.percentile(100) == 1000.0
    with pytest.raises(ValueError):
        series.percentile(101)


def test_empty_series_percentile_is_zero():
    series = MergedSeries("m")
    assert series.percentile(50) == 0.0
    assert series.mean == 0.0


def test_rollup_views():
    obs, samples = _registry_with_series()
    rollup = FleetRollup(obs)
    rack = rollup.rack()
    assert rack.count == 9
    p = rollup.percentiles()
    assert set(p) == {"p50", "p99"}
    assert p["p50"] <= p["p99"]
    # p99 must live in the bucket containing the 80us outlier.
    assert p["p99"] >= 80_000.0


def test_rollup_to_dict_is_json_stable():
    obs, _ = _registry_with_series()
    d1 = FleetRollup(obs).to_dict()
    obs2, _ = _registry_with_series()
    d2 = FleetRollup(obs2).to_dict()
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert set(d1["per_machine"]) == {"enzian0", "enzian1"}
    assert set(d1["per_op"]) == {"put", "get"}


def test_rollup_of_empty_registry():
    rollup = FleetRollup(MetricsRegistry())
    assert rollup.rack().count == 0
    assert rollup.percentiles() == {"p50": 0.0, "p99": 0.0}
    assert rollup.per_machine() == {}
