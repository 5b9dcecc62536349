"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Kernel,
    SimulationError,
    Timeout,
)


def test_timeouts_fire_in_order():
    k = Kernel()
    log = []

    def proc(name, delay):
        yield Timeout(delay)
        log.append((k.now, name))

    k.spawn(proc("late", 10))
    k.spawn(proc("early", 5))
    k.run()
    assert log == [(5.0, "late" if False else "early"), (10.0, "late")]


def test_now_advances_monotonically():
    k = Kernel()
    times = []

    def proc():
        for delay in (3, 0, 7, 1):
            yield Timeout(delay)
            times.append(k.now)

    k.spawn(proc())
    k.run()
    assert times == [3.0, 3.0, 10.0, 11.0]


def test_zero_delay_preserves_fifo_order():
    k = Kernel()
    log = []

    def proc(name):
        yield Timeout(0)
        log.append(name)

    for name in "abc":
        k.spawn(proc(name))
    k.run()
    assert log == ["a", "b", "c"]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Timeout(-1)


def test_cannot_schedule_in_the_past():
    k = Kernel()
    k.now = 100.0
    with pytest.raises(SimulationError):
        k.call_at(50.0, lambda v: None)


def test_process_return_value():
    k = Kernel()

    def proc():
        yield Timeout(1)
        return 42

    assert k.run_process(proc()) == 42


def test_waiting_on_process_yields_its_result():
    k = Kernel()

    def child():
        yield Timeout(5)
        return "payload"

    def parent():
        result = yield k.spawn(child())
        return (k.now, result)

    assert k.run_process(parent()) == (5.0, "payload")


def test_event_broadcast_to_multiple_waiters():
    k = Kernel()
    ev = Event("go")
    woke = []

    def waiter(name):
        value = yield ev
        woke.append((name, value, k.now))

    def trigger():
        yield Timeout(7)
        ev.succeed(k, "v")

    k.spawn(waiter("a"))
    k.spawn(waiter("b"))
    k.spawn(trigger())
    k.run()
    assert woke == [("a", "v", 7.0), ("b", "v", 7.0)]


def test_event_after_fired_resumes_immediately():
    k = Kernel()
    ev = Event()
    ev.succeed(k, 99)

    def waiter():
        value = yield ev
        return (k.now, value)

    assert k.run_process(waiter()) == (0.0, 99)


def test_event_cannot_fire_twice():
    k = Kernel()
    ev = Event()
    ev.succeed(k)
    with pytest.raises(SimulationError):
        ev.succeed(k)


def test_event_value_before_fired_raises():
    ev = Event("pending")
    with pytest.raises(SimulationError):
        _ = ev.value


def test_all_of_waits_for_slowest():
    k = Kernel()

    def proc():
        values = yield AllOf([Timeout(3, "a"), Timeout(9, "b"), Timeout(1, "c")])
        return (k.now, values)

    assert k.run_process(proc()) == (9.0, ["a", "b", "c"])


def test_all_of_empty_fires_immediately():
    k = Kernel()

    def proc():
        values = yield AllOf([])
        return values

    assert k.run_process(proc()) == []


def test_any_of_returns_first():
    k = Kernel()

    def proc():
        index, value = yield AnyOf([Timeout(5, "slow"), Timeout(2, "fast")])
        return (k.now, index, value)

    assert k.run_process(proc()) == (2.0, 1, "fast")


def test_any_of_requires_children():
    with pytest.raises(ValueError):
        AnyOf([])


def test_run_until_stops_the_clock():
    k = Kernel()

    def proc():
        yield Timeout(100)

    k.spawn(proc())
    assert k.run(until=40) == 40.0
    assert k.now == 40.0
    assert k.run() == 100.0


def test_run_until_past_queue_end_advances_clock():
    k = Kernel()
    assert k.run(until=500) == 500.0


def test_yielding_non_awaitable_is_an_error():
    k = Kernel()

    def bad():
        yield 5

    k.spawn(bad())
    with pytest.raises(SimulationError):
        k.run()


def test_run_process_detects_deadlock():
    k = Kernel()
    ev = Event("never")

    def stuck():
        yield ev

    with pytest.raises(SimulationError):
        k.run_process(stuck())


def test_max_events_guard():
    k = Kernel()

    def spin():
        while True:
            yield Timeout(0)

    k.spawn(spin())
    with pytest.raises(SimulationError):
        k.run(max_events=1000)
