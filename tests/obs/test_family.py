"""Prebound metric handles: ``MetricsRegistry.family`` and ``Family``."""

import pytest

from repro.obs import NULL_INSTRUMENT, NULL_REGISTRY, MetricsRegistry, ObsError
from repro.obs.metrics import Instrument


def test_binding_registers_nothing_until_first_update():
    r = MetricsRegistry()
    offered = r.family("counter", "offered_total", ("class",))
    r.family("histogram", "lat_ns", ("op",), base=1.25)
    r.family("gauge", "depth")
    assert r.snapshot() == []
    offered.labels("gbdt").inc()
    assert [(m["name"], m["labels"], m["value"]) for m in r.snapshot()] == [
        ("offered_total", {"class": "gbdt"}, 1.0)
    ]


def test_handle_resolves_the_registry_series():
    r = MetricsRegistry()
    msgs = r.family("counter", "msgs_total", ("vc", "dir"))
    msgs.labels("REQ", 1).inc(2)
    # Same canonical key as the dict API: sorted names, stringified values.
    assert msgs.labels("REQ", 1) is r.counter("msgs_total", {"dir": "1", "vc": "REQ"})
    assert r.family("histogram", "lat_ns", ("op",), base=1.25).labels("get").base == 1.25


def test_binding_a_family_twice_returns_one_handle():
    r = MetricsRegistry()
    assert r.family("counter", "x_total", ("a",)) is r.family("counter", "x_total", ("a",))
    with pytest.raises(ObsError):
        r.family("summary", "x")


def test_kind_conflict_surfaces_on_first_update():
    r = MetricsRegistry()
    r.counter("x")
    gauge = r.family("gauge", "x")
    with pytest.raises(ObsError):
        gauge.labels().set(1)


def test_handle_bound_before_restore_counts_into_restored_registry():
    source = MetricsRegistry()
    source.counter("offered_total", {"class": "gbdt"}).inc(5)
    state = source.snapshot_state()

    r = MetricsRegistry()
    offered = r.family("counter", "offered_total", ("class",))
    offered.labels("gbdt").inc()  # memoized before the restore
    r.restore_state(state)
    offered.labels("gbdt").inc()
    offered.labels("recsys").inc()
    assert r.counter("offered_total", {"class": "gbdt"}).value == 6.0
    assert r.counter("offered_total", {"class": "recsys"}).value == 1.0


def test_each_update_is_one_emit_and_no_record_when_not_recording(monkeypatch):
    """``obs.updates_per_req`` in the ledger counts ``Instrument._emit``
    calls: one per inc/set/observe, and a registry that does not record
    events never reaches ``_record``."""
    emits, records = [], []
    emit, record = Instrument._emit, MetricsRegistry._record

    def counting_emit(self, value):
        emits.append((self.name, value))
        emit(self, value)

    def counting_record(self, *args):
        records.append(args)
        record(self, *args)

    monkeypatch.setattr(Instrument, "_emit", counting_emit)
    monkeypatch.setattr(MetricsRegistry, "_record", counting_record)
    r = MetricsRegistry()
    r.family("counter", "c_total", ("k",)).labels("x").inc()
    depth = r.family("gauge", "depth").labels()
    depth.set(3)
    depth.inc()  # Gauge.inc goes through set: still one emit
    r.family("histogram", "lat_ns", ("k",)).labels("x").observe(2.0)
    assert emits == [("c_total", 1.0), ("depth", 3.0), ("depth", 4.0), ("lat_ns", 2.0)]
    assert records == []


def test_event_log_fills_through_handles_when_recording():
    t = [0.0]
    r = MetricsRegistry(clock=lambda: t[0], record_events=True)
    r.family("counter", "c_total", ("k",)).labels("x").inc()
    t[0] = 2.5
    r.family("histogram", "lat_ns", ("k",)).labels("y").observe(4.0)
    assert [(e.t, e.kind, e.name, e.labels, e.value) for e in r.events] == [
        (0.0, "counter", "c_total", (("k", "x"),), 1.0),
        (2.5, "histogram", "lat_ns", (("k", "y"),), 4.0),
    ]


def test_null_registry_family_is_a_falsy_noop():
    family = NULL_REGISTRY.family("counter", "x_total", ("a",))
    assert not family
    assert family.labels("anything") is NULL_INSTRUMENT
