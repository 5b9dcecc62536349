"""Exporter behaviour: JSON-lines round trip and Prometheus text."""

import pytest

from repro.obs import (
    MetricsRegistry,
    events_jsonl,
    parse_jsonl,
    prometheus_text,
    snapshot_jsonl,
)


def _populated_registry():
    t = [0.0]
    r = MetricsRegistry(clock=lambda: t[0], record_events=True)
    r.counter("eci_messages_total", {"vc": "REQ"}, help="messages").inc(3)
    r.counter("eci_messages_total", {"vc": "RSP"}).inc(5)
    r.gauge("bmc_rail_watts", {"rail": "CPU"}).set(41.25)
    h = r.histogram("sim_wake_latency_ns")
    for i, v in enumerate([0.5, 1.0, 3.0, 100.0]):
        t[0] = float(i)
        h.observe(v)
    return r


def test_snapshot_jsonl_round_trips_exactly():
    r = _populated_registry()
    assert parse_jsonl(snapshot_jsonl(r)) == r.snapshot()


def test_events_jsonl_round_trips_and_preserves_order():
    r = _populated_registry()
    events = parse_jsonl(events_jsonl(r))
    assert events == [e.to_dict() for e in r.events]
    stamps = [e["t"] for e in events if e["name"] == "sim_wake_latency_ns"]
    assert stamps == sorted(stamps) == [0.0, 1.0, 2.0, 3.0]


def test_parse_jsonl_skips_blank_lines_and_rejects_garbage():
    assert parse_jsonl("\n\n") == []
    with pytest.raises(ValueError, match="line 2"):
        parse_jsonl('{"ok": 1}\nnot json')


def test_empty_registry_exports_empty():
    r = MetricsRegistry()
    assert snapshot_jsonl(r) == ""
    assert events_jsonl(r) == ""
    assert prometheus_text(r) == ""


def test_prometheus_counter_and_gauge_lines():
    r = _populated_registry()
    text = prometheus_text(r)
    assert '# TYPE eci_messages_total counter' in text
    assert '# HELP eci_messages_total messages' in text
    assert 'eci_messages_total{vc="REQ"} 3' in text
    assert 'eci_messages_total{vc="RSP"} 5' in text
    assert '# TYPE bmc_rail_watts gauge' in text
    assert 'bmc_rail_watts{rail="CPU"} 41.25' in text


def test_prometheus_histogram_buckets_are_cumulative_with_inf():
    r = _populated_registry()
    lines = prometheus_text(r).splitlines()
    buckets = [l for l in lines if l.startswith("sim_wake_latency_ns_bucket")]
    # observations 0.5, 1.0, 3.0, 100.0 -> bounds 0.5, 1, 4, 128
    assert buckets == [
        'sim_wake_latency_ns_bucket{le="0.5"} 1',
        'sim_wake_latency_ns_bucket{le="1"} 2',
        'sim_wake_latency_ns_bucket{le="4"} 3',
        'sim_wake_latency_ns_bucket{le="128"} 4',
        'sim_wake_latency_ns_bucket{le="+Inf"} 4',
    ]
    assert "sim_wake_latency_ns_sum 104.5" in lines
    assert "sim_wake_latency_ns_count 4" in lines


def test_prometheus_escapes_label_values():
    r = MetricsRegistry()
    r.counter("x_total", {"path": 'a"b\\c'}).inc()
    assert 'x_total{path="a\\"b\\\\c"} 1' in prometheus_text(r)
