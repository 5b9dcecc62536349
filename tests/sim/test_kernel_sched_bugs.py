"""Regression tests for kernel scheduling bugs.

Three historical bugs, each pinned by a test that fails on the kernel
before its fix:

1. ``Kernel._processes`` retained every process ever spawned; a
   long-running simulation leaked bookkeeping without bound.  Fixed by
   amortized reaping in ``Kernel._process_finished``.
2. ``AnyOf`` losers stayed subscribed on reused events (the callback
   list grew per race), and ``Kernel.run``'s ``max_events`` check was
   off by one (``executed > max_events`` after dispatch permitted
   ``max_events + 1`` callbacks).
3. A NaN time passed both guards (``delay < 0`` in ``Timeout``,
   ``when < now`` in ``Kernel.call_at``); the NaN entry broke the heap
   order, so events ran out of time order and ``now`` became NaN.
"""

import pytest

from repro.sim import (
    AnyOf,
    Event,
    Kernel,
    SimulationError,
    Timeout,
)


# -- bug 1: dead processes must be reaped ---------------------------------


def test_dead_processes_are_reaped_in_100k_spawn_soak():
    k = Kernel()
    peak = 0

    def worker():
        yield Timeout(1)
        return None

    def driver():
        nonlocal peak
        for wave in range(100):
            last = None
            for _ in range(1_000):
                last = k.spawn(worker())
            yield last
            peak = max(peak, len(k._processes))

    k.run_process(driver())
    # Pre-fix the list holds all 100_001 processes ever spawned.  The
    # amortized reaper keeps it at O(live + reap window): each wave's
    # dead are compacted away, so even the peak stays a small multiple
    # of the 1_000 concurrently-live workers.
    assert peak <= 8_000
    assert len(k._processes) <= 2_000


# -- bug 2a: AnyOf losers unsubscribe -------------------------------------


def test_anyof_losers_unsubscribe_from_reused_event():
    """Racing a never-firing event against timeouts must not grow the
    event's callback list by one dead subscription per race."""
    k = Kernel()
    evt = Event("never-fires")

    def racer():
        for _ in range(50):
            index, value = yield AnyOf([evt, Timeout(1, "tick")])
            assert (index, value) == (1, "tick")
        return len(evt._callbacks)

    leftover = k.run_process(racer())
    assert leftover == 0


def test_anyof_event_winner_still_delivers():
    k = Kernel()
    evt = Event("gate")

    def racer():
        index, value = yield AnyOf([evt, Timeout(100)])
        return (index, value, k.now)

    def firer():
        yield Timeout(3)
        evt.succeed(k, "won")

    proc = k.spawn(racer())
    k.spawn(firer())
    k.run()
    assert proc.result == (0, "won", 3.0)


# -- bug 2b: max_events is an exact budget --------------------------------


@pytest.mark.parametrize("slow_path", [False, True])
def test_max_events_exact_budget_raises_before_excess(slow_path):
    k = Kernel()
    fired = []
    for i in range(6):
        k.call_at(float(i), fired.append, i)
    until = 100.0 if slow_path else None
    with pytest.raises(SimulationError, match="exceeded 5 events"):
        k.run(until=until, max_events=5)
    # The off-by-one kernel dispatched all 6 callbacks before raising.
    assert fired == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("slow_path", [False, True])
def test_max_events_exact_budget_allows_exactly_max(slow_path):
    k = Kernel()
    fired = []
    for i in range(5):
        k.call_at(float(i), fired.append, i)
    until = 100.0 if slow_path else None
    k.run(until=until, max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_budget_spans_fast_loop_chunks():
    """The fast loop checks its budget per chunk; the bound must stay
    exact even when the workload crosses a chunk boundary."""
    from repro.sim.kernel import _DISPATCH_CHUNK

    total = _DISPATCH_CHUNK + 10
    k = Kernel()
    count = [0]

    def tick(value):
        count[0] += 1
        k.call_at(k.now + 1.0, tick)

    k.call_at(0.0, tick)
    with pytest.raises(SimulationError):
        k.run(max_events=total)
    assert count[0] == total


# -- bug 3: NaN times are rejected ----------------------------------------


def test_nan_timeout_delay_raises():
    with pytest.raises(ValueError):
        Timeout(float("nan"))
    with pytest.raises(ValueError):
        Kernel().timeout(float("nan"))


def test_nan_call_at_raises_and_time_order_holds():
    k = Kernel()
    log = []
    for when, name in ((30.0, "a"), (10.0, "b"), (20.0, "c")):
        k.call_at(when, log.append, (when, name))
    # Accepted, the NaN entry ran out of order:
    # [(10, 'b'), (20, 'c'), (nan, 'nan'), (30, 'a')].
    with pytest.raises(SimulationError):
        k.call_at(float("nan"), log.append, (float("nan"), "nan"))
    with pytest.raises(SimulationError):
        k.call_after(float("nan"), log.append, (float("nan"), "nan"))
    k.run()
    assert log == [(10.0, "b"), (20.0, "c"), (30.0, "a")]
    assert k.now == 30.0


def test_process_yielding_a_nan_timeout_fails_loudly():
    k = Kernel()

    def sleeper():
        yield Timeout(float("nan"))

    with pytest.raises(ValueError):
        k.run_process(sleeper())
