"""The Wing & Gong linearizability checker, unit-tested on crafted
histories -- both ones it must accept (concurrent ops with *some* legal
order) and ones it must reject (a read observing a value no
linearization can produce)."""

import pytest

from repro.fleet.audit import (
    AuditError,
    HistoryRecorder,
    assert_linearizable,
    check_history,
)

pytestmark = [pytest.mark.fleet, pytest.mark.partition]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _recorder():
    return HistoryRecorder(_FakeClock())


def test_empty_history_is_linearizable():
    recorder = _recorder()
    assert check_history(recorder).ok
    assert assert_linearizable(recorder).summary()["ops"] == 0


def test_sequential_history_ok():
    r = _recorder()
    w = r.invoke("c0", "put", b"k", b"v1")
    r.respond(w, True)
    g = r.invoke("c0", "get", b"k", None)
    r.respond(g, b"v1")
    d = r.invoke("c0", "delete", b"k", None)
    r.respond(d, True)
    g2 = r.invoke("c0", "get", b"k", None)
    r.respond(g2, None)
    assert check_history(r).ok


def test_stale_read_is_caught():
    """w(v1) completes, then a later get returns the initial None --
    no order can explain it."""
    r = _recorder()
    w = r.invoke("c0", "put", b"k", b"v1")
    r.respond(w, True)
    g = r.invoke("c0", "get", b"k", None)
    r.respond(g, None)  # stale: v1 was committed before we started
    report = check_history(r)
    assert not report.ok
    assert report.violations[0].key == b"k"
    with pytest.raises(AuditError, match="not linearizable"):
        assert_linearizable(r)


def test_a_second_response_cannot_hide_a_stale_read():
    """Responding to the completed put again would move its response
    past the stale read and let the read linearize first; the recorder
    refuses it, and the read stays a violation."""
    r = _recorder()
    w = r.invoke("c0", "put", b"k", b"v1")
    r.respond(w, True)
    g = r.invoke("c0", "get", b"k", None)
    r.respond(g, None)
    with pytest.raises(AuditError, match=r"c0 put\(b'k'\) cannot respond: it responded already"):
        r.respond(w, True)
    assert [k.key for k in check_history(r).violations] == [b"k"]


def test_concurrent_reads_may_split_around_a_write():
    """Two gets concurrent with a put may legally return old and new."""
    r = _recorder()
    w = r.invoke("c0", "put", b"k", b"v1")   # invoked first, still open
    g1 = r.invoke("c1", "get", b"k", None)
    r.respond(g1, None)                       # linearized before the put
    g2 = r.invoke("c1", "get", b"k", None)
    r.respond(g2, b"v1")                      # linearized after the put
    r.respond(w, True)
    assert check_history(r).ok


def test_value_reordering_is_caught():
    """get->v1 then get->v2 then get->v1 again, with both writes
    complete and ordered: the second v1 read has no legal position."""
    r = _recorder()
    w1 = r.invoke("c0", "put", b"k", b"v1")
    r.respond(w1, True)
    w2 = r.invoke("c0", "put", b"k", b"v2")
    r.respond(w2, True)
    g1 = r.invoke("c1", "get", b"k", None)
    r.respond(g1, b"v2")
    g2 = r.invoke("c1", "get", b"k", None)
    r.respond(g2, b"v1")  # time travel
    assert not check_history(r).ok


def test_unknown_outcome_write_may_or_may_not_take_effect():
    """An abandoned put explains a later read of its value (it may have
    landed) -- and a later read of the old value (it may not have)."""
    for observed in (b"maybe", None):
        r = _recorder()
        w = r.invoke("c0", "put", b"k", b"maybe")
        r.abandon(w)
        g = r.invoke("c1", "get", b"k", None)
        r.respond(g, observed)
        assert check_history(r).ok, f"observed={observed!r}"


def test_unknown_write_cannot_explain_a_third_value():
    r = _recorder()
    w = r.invoke("c0", "put", b"k", b"maybe")
    r.abandon(w)
    g = r.invoke("c1", "get", b"k", None)
    r.respond(g, b"never-written")
    assert not check_history(r).ok


def test_keys_are_checked_independently():
    r = _recorder()
    w = r.invoke("c0", "put", b"good", b"v")
    r.respond(w, True)
    g = r.invoke("c0", "get", b"good", None)
    r.respond(g, b"v")
    w2 = r.invoke("c0", "put", b"bad", b"v")
    r.respond(w2, True)
    g2 = r.invoke("c0", "get", b"bad", None)
    r.respond(g2, None)  # violation on "bad" only
    report = check_history(r)
    verdicts = {k.key: k.ok for k in report.keys}
    assert verdicts == {b"good": True, b"bad": False}


def test_oversized_key_history_fails_loudly():
    r = _recorder()
    for i in range(5):
        w = r.invoke("c0", "put", b"k", b"v")
        r.respond(w, True)
    report = check_history(r, max_ops_per_key=3)
    assert not report.ok
    assert "too large" in report.keys[0].detail


def test_real_fleet_history_passes_the_audit():
    """End-to-end: a quorum rack workload recorded live is linearizable."""
    from repro.config import FleetConfig
    from repro.fleet import HistoryRecorder as FleetRecorder
    from repro.fleet import Rack

    rack = Rack(FleetConfig(machines=5, replication_factor=3, seed=0xAD17))
    client = rack.client()
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    assert FleetRecorder is HistoryRecorder
    client.history = recorder

    def workload():
        for i in range(10):
            key = f"audit-{i % 3}".encode()
            yield from client.put(key, f"v{i}".encode())
            got = yield from client.get(key)
            assert got == f"v{i}".encode()
        yield from client.delete(b"audit-0")
        final = yield from client.get(b"audit-0")
        assert final is None

    rack.kernel.run_process(workload())
    report = assert_linearizable(recorder)
    assert report.summary()["ops"] == 22
    assert report.ok
