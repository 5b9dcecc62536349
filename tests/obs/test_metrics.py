"""Registry, counter, gauge, and log-bucketed histogram behaviour."""

import pytest

from repro.obs import (
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    ObsError,
)


def test_counter_starts_at_zero_and_accumulates():
    r = MetricsRegistry()
    c = r.counter("x_total")
    assert c.value == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_decrease():
    c = MetricsRegistry().counter("x_total")
    with pytest.raises(ObsError):
        c.inc(-1)


def test_labelled_series_are_distinct():
    r = MetricsRegistry()
    a = r.counter("msgs_total", {"vc": "REQ"})
    b = r.counter("msgs_total", {"vc": "RSP"})
    a.inc(3)
    assert b.value == 0.0
    assert {m.labels["vc"] for m in r.metrics()} == {"REQ", "RSP"}


def test_same_name_and_labels_return_same_instrument():
    r = MetricsRegistry()
    assert r.counter("x", {"a": 1}) is r.counter("x", {"a": 1})
    # Label order and value stringification do not matter.
    assert r.counter("y", {"a": 1, "b": 2}) is r.counter("y", {"b": "2", "a": "1"})


def test_kind_conflict_raises():
    r = MetricsRegistry()
    r.counter("x")
    with pytest.raises(ObsError):
        r.gauge("x")
    with pytest.raises(ObsError):
        r.histogram("x")


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("depth")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13.0


def test_histogram_bucket_boundaries_are_log2():
    h = MetricsRegistry().histogram("lat_ns")
    for value, expected in [(1, 1.0), (1.5, 2.0), (2.0, 2.0), (2.01, 4.0),
                            (8, 8.0), (1000, 1024.0)]:
        assert h.bucket_bound(value) == expected, value


def test_histogram_nonpositive_values_share_zero_bucket():
    h = MetricsRegistry().histogram("lat_ns")
    h.observe(0.0)
    h.observe(-3.0)
    assert dict(h.buckets())[0.0] == 2


def test_histogram_count_sum_min_max_mean():
    h = MetricsRegistry().histogram("lat_ns")
    for v in [1.0, 4.0, 16.0]:
        h.observe(v)
    assert h.count == 3
    assert h.sum == 21.0
    assert h.min == 1.0
    assert h.max == 16.0
    assert h.mean == 7.0


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("amount", NON_FINITE, ids=repr)
def test_counter_rejects_a_non_finite_increment(amount):
    r = MetricsRegistry(record_events=True)
    c = r.counter("x_total")
    c.inc(2)
    with pytest.raises(ObsError, match="'x_total'"):
        c.inc(amount)
    assert c.value == 2.0
    assert len(r.events) == 1


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_gauge_rejects_a_non_finite_value(value):
    r = MetricsRegistry(record_events=True)
    g = r.gauge("depth")
    g.set(3)
    for update in (g.set, g.inc, g.dec):
        with pytest.raises(ObsError, match="'depth'"):
            update(value)
    assert g.value == 3.0
    assert len(r.events) == 1


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_histogram_rejects_a_non_finite_value(value):
    r = MetricsRegistry(record_events=True)
    h = r.histogram("lat_ns")
    h.observe(4.0)
    with pytest.raises(ObsError, match="'lat_ns'"):
        h.observe(value)
    assert (h.count, h.sum, h.min, h.max) == (1, 4.0, 4.0, 4.0)
    assert h.buckets() == [(4.0, 1)]
    assert len(r.events) == 1


def test_histogram_custom_base():
    h = MetricsRegistry().histogram("lat_ns", base=10.0)
    assert h.bucket_bound(9) == 10.0
    assert h.bucket_bound(10) == 10.0
    assert h.bucket_bound(11) == 100.0


def test_histogram_rejects_bad_base():
    with pytest.raises(ObsError):
        MetricsRegistry().histogram("x", base=1.0)


def test_histogram_base_conflict_on_the_same_labels_raises():
    r = MetricsRegistry()
    r.histogram("lat_ns", {"class": "a"}, base=2.0)
    with pytest.raises(ObsError, match=r"'lat_ns'.*base 2.*base 1.25"):
        r.histogram("lat_ns", {"class": "a"}, base=1.25)
    handle = r.family("histogram", "lat_ns", ("class",), base=1.25)
    with pytest.raises(ObsError, match="lat_ns"):
        handle.labels("a").observe(1.0)


def test_histogram_base_conflict_across_label_sets_raises():
    """Series of one metric are merged bucket by bucket, so they must
    share one base whatever their labels."""
    r = MetricsRegistry()
    r.histogram("lat_ns", {"class": "a"}, base=2.0)
    with pytest.raises(ObsError, match=r"'lat_ns'.*base 2.*base 1.25"):
        r.histogram("lat_ns", {"class": "b"}, base=1.25)
    with pytest.raises(ObsError):
        r.family("histogram", "lat_ns", ("class",), base=1.25).labels("b").observe(1.0)
    assert [m.labels for m in r.metrics()] == [{"class": "a"}]


def test_histogram_same_base_returns_the_series_and_survives_restore():
    r = MetricsRegistry()
    h = r.histogram("lat_ns", {"class": "a"}, base=1.25)
    assert r.histogram("lat_ns", {"class": "a"}, base=1.25) is h
    assert r.histogram("lat_ns", {"class": "b"}, base=1.25).base == 1.25
    state = r.snapshot_state()
    # The restored registry knows the restored bases, not its own.
    other = MetricsRegistry()
    other.histogram("lat_ns", base=2.0)
    other.restore_state(state)
    assert other.histogram("lat_ns", {"class": "c"}, base=1.25).base == 1.25
    with pytest.raises(ObsError):
        other.histogram("lat_ns", {"class": "d"}, base=2.0)


def test_null_registry_histograms_ignore_the_base():
    assert NULL_REGISTRY.histogram("lat_ns", base=2.0) is NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("lat_ns", base=1.25) is NULL_INSTRUMENT
    handle = NULL_REGISTRY.family("histogram", "lat_ns", ("class",), base=1.25)
    assert handle.labels("a") is NULL_INSTRUMENT


def test_clock_stamps_events():
    t = [0.0]
    r = MetricsRegistry(clock=lambda: t[0], record_events=True)
    c = r.counter("x_total")
    c.inc()
    t[0] = 7.5
    c.inc()
    assert [e.t for e in r.events] == [0.0, 7.5]
    assert [e.value for e in r.events] == [1.0, 2.0]


def test_use_clock_override_false_keeps_existing():
    r = MetricsRegistry(clock=lambda: 11.0)
    r.use_clock(lambda: 99.0, override=False)
    assert r.now == 11.0
    r.use_clock(lambda: 99.0)
    assert r.now == 99.0


def test_events_off_by_default():
    r = MetricsRegistry()
    r.counter("x").inc()
    r.histogram("h").observe(1)
    assert r.events == []


def test_event_log_bounded():
    r = MetricsRegistry(record_events=True, max_events=3)
    c = r.counter("x")
    for _ in range(10):
        c.inc()
    assert len(r.events) == 3
    assert r.dropped_events == 7


def test_snapshot_is_deterministically_ordered():
    r = MetricsRegistry()
    r.counter("z_total").inc()
    r.gauge("a_gauge").set(1)
    r.counter("m_total", {"vc": "RSP"})
    r.counter("m_total", {"vc": "REQ"})
    names = [(e["name"], tuple(sorted(e["labels"].items()))) for e in r.snapshot()]
    assert names == sorted(names)


def test_null_registry_is_falsy_noop_singleton():
    assert not NULL_REGISTRY
    assert not NULL_INSTRUMENT
    assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
    assert NULL_REGISTRY.gauge("x") is NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("x") is NULL_INSTRUMENT
    # All no-ops, no state.
    NULL_REGISTRY.counter("x").inc(5)
    NULL_REGISTRY.gauge("x").set(5)
    NULL_REGISTRY.histogram("x").observe(5)
    NULL_REGISTRY.use_clock(lambda: 1.0)
    assert NULL_REGISTRY.snapshot() == []
    assert list(NULL_REGISTRY.metrics()) == []
    assert isinstance(NULL_REGISTRY, NullRegistry)
