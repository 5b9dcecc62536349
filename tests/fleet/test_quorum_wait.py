"""The KVS client's quorum wait against the AnyOf race it replaced.

``_QuorumWait`` is the awaitable a KVS op yields.  It must resume the op
exactly as ``AnyOf([event, Timeout(timeout_ns)])`` did: the same
``(index, value)`` pair, at the same time, with the same kernel events
scheduled at the same moments in the same order.  Each case runs one
scripted fan-in through both and compares the resume values, the
``when`` of every ``call_at`` and the final kernel ``seq``.
"""

import pytest

from repro.fleet.kvs import KvsResponse, _QuorumWait
from repro.sim import AnyOf, Kernel, Timeout

pytestmark = pytest.mark.fleet

TIMEOUT_NS = 100.0


class RecordingKernel(Kernel):
    def __init__(self):
        super().__init__()
        self.whens = []

    def call_at(self, when, callback, value=None):
        self.whens.append(when)
        super().call_at(when, callback, value)


class AnyOfWait:
    """The fan-in as it was: an Event raced against a Timeout."""

    def __init__(self, kernel, need, expected, timeout_ns, fail_fast=False):
        self.event = kernel.event("kvs-q")
        self.awaitable = AnyOf([self.event, Timeout(timeout_ns)])
        self.need = need
        self.expected = expected
        self.fail_fast = fail_fast
        self.oks = []
        self.rejects = []

    def on_response(self, kernel, response):
        (self.rejects if response.error else self.oks).append(response)
        if self.event.fired:
            return
        if not response.error:
            if len(self.oks) >= self.need:
                self.event.succeed(kernel, list(self.oks))
                return
        elif self.fail_fast:
            self.event.succeed(kernel, None)
            return
        if len(self.oks) + len(self.rejects) >= self.expected and len(self.oks) < self.need:
            self.event.succeed(kernel, None)


def _ok(machine, txid=1):
    return KvsResponse(txid, True, b"v", machine, epoch=1, version=(1, 1))


def _stale(machine, txid=1):
    return KvsResponse(txid, False, None, machine, epoch=2, error="stale_epoch")


def _drive(direct: bool, script, need=2, expected=3, fail_fast=False):
    """Deliver ``script`` [(t, response)] to one wait the op yields at t=0."""
    kernel = RecordingKernel()
    if direct:
        wait = _QuorumWait(need, expected, TIMEOUT_NS, fail_fast=fail_fast)
        awaitable = wait
    else:
        wait = AnyOfWait(kernel, need, expected, TIMEOUT_NS, fail_fast=fail_fast)
        awaitable = wait.awaitable
    for t, response in script:
        kernel.call_at(t, lambda _, r=response: wait.on_response(kernel, r))
    resumed = []

    def op():
        outcome = yield awaitable
        resumed.append((kernel.now, outcome))

    kernel.spawn(op())
    kernel.run()
    return {
        "resumed": resumed,
        "whens": kernel.whens,
        "seq": kernel.snapshot_state()["seq"],
        "now": kernel.now,
        "oks": [r.machine for r in wait.oks],
        "rejects": [r.machine for r in wait.rejects],
    }


CASES = {
    # w=2 of 3 acks: commits at the second ack; the deadline fires later
    # as a no-op and the straggler is still recorded.
    "commit_then_deadline": (
        [(10.0, _ok("a")), (20.0, _ok("b")), (30.0, _ok("c"))], {}, (20.0, 0),
    ),
    # Every expected answer in and still short of need.
    "impossible": (
        [(10.0, _stale("a")), (20.0, _ok("b")), (30.0, _stale("c"))], {}, (30.0, 0),
    ),
    # A write fails fast on the first rejection.
    "fail_fast": (
        [(10.0, _ok("a")), (15.0, _stale("b")), (20.0, _ok("c"))],
        {"fail_fast": True},
        (15.0, 0),
    ),
    # The deadline wins; decisions that come later schedule nothing.
    "deadline_then_late_decision": (
        [(50.0, _ok("a")), (150.0, _ok("b")), (160.0, _ok("c"))], {}, (100.0, 1),
    ),
    # Decided at the deadline's own moment: the deadline was queued
    # first, so it wins the tie and the decision's wake is a no-op.
    "decision_at_the_deadline": (
        [(50.0, _ok("a")), (100.0, _ok("b"))], {}, (100.0, 1),
    ),
    # Nobody answers at all.
    "silence": ([], {}, (100.0, 1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_quorum_wait_matches_anyof_schedule_and_values(case):
    script, kwargs, (when, index) = CASES[case]
    direct = _drive(True, script, **kwargs)
    reference = _drive(False, script, **kwargs)
    assert direct == reference
    [(resumed_at, (got_index, value))] = direct["resumed"]
    assert (resumed_at, got_index) == (when, index)
    if index == 1:
        assert value is None


def test_commit_resumes_with_the_counted_responses():
    result = _drive(True, CASES["commit_then_deadline"][0])
    [(_, (index, value))] = result["resumed"]
    assert index == 0
    assert [r.machine for r in value] == ["a", "b"]
    assert result["oks"] == ["a", "b", "c"]  # the straggler still lands


def test_decision_after_the_deadline_schedules_nothing():
    kernel = RecordingKernel()
    wait = _QuorumWait(1, 1, TIMEOUT_NS)
    outcomes = []

    def op():
        outcomes.append((yield wait))

    kernel.spawn(op())
    kernel.run()
    assert outcomes == [(1, None)]
    before = kernel.snapshot_state()["seq"]
    wait.on_response(kernel, _ok("a"))
    assert wait.decided
    assert kernel.snapshot_state()["seq"] == before
    assert kernel.pending_events == 0
