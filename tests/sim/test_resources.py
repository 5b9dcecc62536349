"""Unit tests for simulation channels."""

import pytest

from repro.sim import Channel, Kernel, Timeout


def test_channel_fifo_order():
    k = Kernel()
    received = []

    def producer(ch):
        for i in range(5):
            yield ch.put(i)

    def consumer(ch):
        for _ in range(5):
            item = yield ch.get()
            received.append(item)

    ch = Channel()
    k.spawn(producer(ch))
    k.spawn(consumer(ch))
    k.run()
    assert received == [0, 1, 2, 3, 4]


def test_channel_get_blocks_until_put():
    k = Kernel()

    def consumer(ch):
        item = yield ch.get()
        return (k.now, item)

    def producer(ch):
        yield Timeout(25)
        yield ch.put("x")

    ch = Channel()
    consumer_proc = k.spawn(consumer(ch))
    k.spawn(producer(ch))
    k.run()
    assert consumer_proc.result == (25.0, "x")


def test_bounded_channel_put_blocks_when_full():
    k = Kernel()
    log = []

    def producer(ch):
        yield ch.put("a")
        log.append(("put-a", k.now))
        yield ch.put("b")
        log.append(("put-b", k.now))

    def consumer(ch):
        yield Timeout(50)
        item = yield ch.get()
        log.append((f"got-{item}", k.now))

    ch = Channel(capacity=1)
    k.spawn(producer(ch))
    k.spawn(consumer(ch))
    k.run()
    assert log == [("put-a", 0.0), ("got-a", 50.0), ("put-b", 50.0)]


def test_channel_capacity_validation():
    with pytest.raises(ValueError):
        Channel(capacity=0)


def test_channel_len_and_full():
    k = Kernel()
    ch = Channel(capacity=2)

    def producer():
        yield ch.put(1)
        yield ch.put(2)

    k.spawn(producer())
    k.run()
    assert len(ch) == 2
    assert ch.full


def test_try_put_now_respects_capacity():
    k = Kernel()
    ch = Channel(capacity=1)
    assert ch.try_put_now(k, "a")
    assert not ch.try_put_now(k, "b")
    assert len(ch) == 1


def test_try_put_now_wakes_parked_getter():
    k = Kernel()
    ch = Channel()

    def consumer():
        item = yield ch.get()
        return item

    proc = k.spawn(consumer())
    k.run()  # consumer parks
    assert proc.alive
    ch.try_put_now(k, "wake")
    k.run()
    assert proc.result == "wake"


def test_multiple_consumers_fifo_fair():
    k = Kernel()
    got = []

    def consumer(name, ch):
        item = yield ch.get()
        got.append((name, item))

    def producer(ch):
        yield Timeout(1)
        yield ch.put("x")
        yield ch.put("y")

    ch = Channel()
    k.spawn(consumer("first", ch))
    k.spawn(consumer("second", ch))
    k.spawn(producer(ch))
    k.run()
    assert got == [("first", "x"), ("second", "y")]
