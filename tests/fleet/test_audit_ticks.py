"""The history recorder's columnar, tick-stamped layout.

The recorder keeps each op in columns (two int ticks among them) and
each tick's time in one array, so the checker compares ticks where it
used to compare ``(time, tick)`` stamps, and reads the columns where it
used to read one record per op.  The two orders agree only under a
non-decreasing clock, which the recorder enforces.  These tests pin that
agreement against a copy of the stamp-comparing search over built
records, the layout's memory cost, that the audit builds no records, and
the clock and outcome-once rules."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.audit import (
    AuditError,
    HistoryOp,
    HistoryRecorder,
    check_history,
    describe_violation,
)

pytestmark = [pytest.mark.fleet, pytest.mark.partition]

_NEVER = (math.inf, math.inf)


def _stamp_linearizable_key(ops):
    """The Wing & Gong search as it was over ``(time, tick)`` stamps: the
    reference the tick-comparing search must agree with."""
    ops = [o for o in ops if o.completed or o.op in ("put", "delete")]
    n = len(ops)
    if n == 0:
        return True
    invoke = [o.invoke_ts for o in ops]
    respond = [o.respond_ts if o.completed else _NEVER for o in ops]
    required = 0
    for i, o in enumerate(ops):
        if o.completed:
            required |= 1 << i
    seen = set()

    def search(mask, state):
        if mask & required == required:
            return True
        token = (mask, state)
        if token in seen:
            return False
        seen.add(token)
        pending = [i for i in range(n) if not mask & (1 << i)]
        bound = min(respond[i] for i in pending)
        for i in pending:
            if invoke[i] > bound:
                continue
            op = ops[i]
            if op.op == "get":
                if op.result != state:
                    continue
                new_state = state
            elif op.op == "put":
                new_state = bytes(op.arg) if op.arg is not None else b""
            else:
                new_state = None
            if search(mask | (1 << i), new_state):
                return True
        return False

    return search(0, None)


def _by_key(recorder):
    out = {}
    for op in recorder.ops:
        out.setdefault(op.key, []).append(op)
    return out


def _stamp_max_concurrency(recorder):
    worst = 0
    for ops in _by_key(recorder).values():
        events = sorted(
            event
            for op in ops if op.completed
            for event in ((op.invoke_ts, 1), (op.respond_ts, -1))
        )
        depth = 0
        for _stamp, delta in events:
            depth += delta
            worst = max(worst, depth)
    return worst


VALUES = (b"v1", b"v2", b"v3")


@settings(max_examples=200)
@given(st.data())
def test_tick_verdicts_match_the_stamp_reference(data):
    now = [0.0]

    def clock():
        # Mostly no time passes, so many stamps share one instant.
        now[0] += data.draw(st.sampled_from((0.0, 0.0, 0.0, 1.0, 2.5)))
        return now[0]

    recorder = HistoryRecorder(clock)
    keys = (b"a", b"b", b"c")[: data.draw(st.integers(1, 3))]
    open_ops = []
    invokes = 0
    for _ in range(data.draw(st.integers(1, 24))):
        action = data.draw(st.sampled_from(("invoke", "respond", "abandon")))
        if action == "invoke" or not open_ops:
            if invokes == 12:
                break
            invokes += 1
            op = data.draw(st.sampled_from(("put", "get", "delete")))
            arg = data.draw(st.sampled_from(VALUES)) if op == "put" else None
            client = data.draw(st.sampled_from(("c0", "c1", "c2")))
            open_ops.append(recorder.invoke(client, op, data.draw(st.sampled_from(keys)), arg))
            continue
        record = open_ops.pop(data.draw(st.integers(0, len(open_ops) - 1)))
        if action == "abandon":
            recorder.abandon(record)
        elif recorder.op(record).op == "get":
            recorder.respond(record, data.draw(st.sampled_from((None,) + VALUES)))
        else:
            recorder.respond(record, True)
    # Whatever is still open stays unknown, as at the end of a run.

    by_key = _by_key(recorder)
    verdicts = {k.key: k.ok for k in check_history(recorder).keys}
    assert verdicts == {key: _stamp_linearizable_key(ops) for key, ops in by_key.items()}
    assert recorder.max_concurrency() == _stamp_max_concurrency(recorder)


def test_records_read_back_their_stamps():
    times = iter((5.0, 5.0, 7.5))
    recorder = HistoryRecorder(lambda: next(times))
    put = recorder.invoke("c0", "put", b"k", b"v")
    get = recorder.invoke("c1", "get", b"k", None)
    recorder.respond(put, True)
    recorder.abandon(get)
    put, get = recorder.op(put), recorder.op(get)
    assert (put.invoke_ts, put.respond_ts, put.completed) == ((5.0, 1), (7.5, 3), True)
    assert (get.invoke_ts, get.respond_ts, get.completed) == ((5.0, 2), None, False)
    # The recorder's shared time array is neither shown nor compared.
    assert "array" not in repr(put)
    other = HistoryRecorder(lambda: 0.0)
    twin = other.invoke("c0", "put", b"k", b"v")
    other.invoke("c1", "get", b"k", None)
    other.respond(twin, True)
    twin = other.op(twin)
    assert twin == put


@pytest.mark.parametrize(
    "later", [4.0, float("nan")], ids=["backward", "nan"]
)
def test_a_clock_that_runs_backwards_is_refused(later):
    readings = iter((5.0, later))
    recorder = HistoryRecorder(lambda: next(readings))
    put = recorder.invoke("c0", "put", b"k", b"v")
    with pytest.raises(AuditError, match=rf"c0 put\(b'k'\) stamped at {later!r} after a stamp at 5\.0"):
        recorder.respond(put, True)
    # The refused response left the record as it was: outcome unknown.
    assert (recorder.op(put).respond_tick, recorder.op(put).result) == (None, None)


def test_a_nan_first_reading_is_refused():
    recorder = HistoryRecorder(lambda: float("nan"))
    with pytest.raises(AuditError, match=r"c0 get\(b'k'\) stamped at nan"):
        recorder.invoke("c0", "get", b"k", None)
    assert len(recorder) == 0


def test_recording_costs_at_most_80_bytes_per_op():
    n = 5_000
    keys = [b"key-%d" % (i % 64) for i in range(n)]
    values = [b"value-%d" % i for i in range(n)]
    now = [0.0]

    def clock():
        now[0] += 1.5
        return now[0]

    recorder = HistoryRecorder(clock)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            if i % 2:
                record = recorder.invoke("c0", "get", keys[i], None)
                recorder.respond(record, values[i - 1])
            else:
                record = recorder.invoke("c0", "put", keys[i], values[i])
                recorder.respond(record, True)
        record = None
        per_op = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(recorder) == n
    assert per_op <= 80, f"{per_op:.1f} B per recorded op"


def _stale_read_history():
    """A two-client history whose key ``b"k"`` fails the audit: a put
    completes, then a read returns the initial ``None``.  Ten more
    overlapping puts and reads on ``b"k"`` and ``b"j"`` go first."""
    recorder = HistoryRecorder(lambda: 0.0)
    for key in (b"j", b"k"):
        for n in range(5):
            put = recorder.invoke("c0", "put", key, b"v%d" % n)
            get = recorder.invoke("c1", "get", key, None)
            recorder.respond(put, True)
            recorder.respond(get, b"v%d" % n)
    put = recorder.invoke("c0", "put", b"k", b"last")
    recorder.respond(put, True)
    stale = recorder.invoke("c1", "get", b"k", None)
    recorder.respond(stale, None)
    return recorder, put


def test_the_audit_reads_the_columns_and_builds_no_records(monkeypatch):
    recorder, _ = _stale_read_history()
    built = []
    init = HistoryOp.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:3])
        init(self, *args, **kwargs)

    monkeypatch.setattr(HistoryOp, "__init__", counting_init)
    report = check_history(recorder)
    assert (recorder.max_concurrency(), recorder.clients) == (2, ["c0", "c1"])
    assert [(k.key, k.ops, k.completed, k.ok) for k in report.keys] == [
        (b"j", 10, 10, True),
        (b"k", 12, 12, False),
    ]
    assert built == []
    message = describe_violation(recorder, report.violations[0])
    assert message.startswith(
        "history for key b'k' is not linearizable (no valid linearization; 12 ops): "
        "c0 put(b'k') -> True; c1 get(b'k') -> b'v0'; "
    )
    assert len(built) == 8
    assert {key for _client, _op, key in built} == {b"k"}


@pytest.mark.parametrize("second", ["respond", "abandon"])
@pytest.mark.parametrize("first", ["respond", "abandon"])
def test_an_outcome_is_set_only_once(first, second):
    recorder, put = _stale_read_history()
    if first == "abandon":
        put = recorder.invoke("c0", "put", b"k", b"maybe")
        recorder.abandon(put)
    before, stamps = recorder.op(put), len(recorder._times)
    settled = "responded" if first == "respond" else "was abandoned"
    with pytest.raises(
        AuditError,
        match=rf"^c0 put\(b'k'\) cannot {second}: it {settled} already, "
        "and an op's outcome is set only once$",
    ):
        if second == "respond":
            recorder.respond(put, True)
        else:
            recorder.abandon(put)
    # The refusal changed nothing: not the record, not the clock, and
    # not the verdict the stale read earns.
    assert (recorder.op(put), len(recorder._times)) == (before, stamps)
    assert [k.key for k in check_history(recorder).violations] == [b"k"]


def test_an_unknown_op_kind_is_refused():
    recorder = HistoryRecorder(lambda: 0.0)
    with pytest.raises(AuditError, match=r"c0 scan\(b'k'\): the audit knows no op 'scan'"):
        recorder.invoke("c0", "scan", b"k", None)
    assert len(recorder) == 0
