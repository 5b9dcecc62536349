"""Tests for the Go-Back-N reliable stream over lossy links."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import ReliableReceiver, ReliableSender, two_hosts_via_switch
from repro.sim import Kernel


def run_transfer(payload, loss_rate=0.0, window=16, mtu=1024, seed_offset=0):
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel, loss_rate=loss_rate)
    if seed_offset:
        link_a._rng.seed(seed_offset)
        link_b._rng.seed(seed_offset + 1)
    sender = ReliableSender(
        kernel, link_a, local="enzianA", remote="enzianB", window=window, mtu=mtu
    )
    receiver = ReliableReceiver(kernel, link_b, local="enzianB", remote="enzianA")
    stats = kernel.run_process(sender.send(payload))
    return receiver, stats, kernel


def test_lossless_delivery():
    payload = bytes(range(256)) * 20
    receiver, stats, _ = run_transfer(payload)
    assert receiver.data == payload
    assert stats["retransmitted"] == 0


def test_empty_payload():
    receiver, _, _ = run_transfer(b"")
    assert receiver.data == b""


def test_single_segment():
    receiver, _, _ = run_transfer(b"hello", mtu=1500)
    assert receiver.data == b"hello"


@pytest.mark.parametrize("loss_rate", [0.02, 0.10, 0.25])
def test_delivery_despite_loss(loss_rate):
    payload = bytes(i % 251 for i in range(20_000))
    receiver, stats, _ = run_transfer(payload, loss_rate=loss_rate)
    assert receiver.data == payload
    assert stats["retransmitted"] > 0


def test_retransmissions_grow_with_loss():
    payload = bytes(50_000)
    _, low_loss, _ = run_transfer(payload, loss_rate=0.02)
    _, high_loss, _ = run_transfer(payload, loss_rate=0.20)
    assert high_loss["retransmitted"] > low_loss["retransmitted"]


def test_window_one_is_stop_and_wait():
    payload = bytes(8_000)
    _, stats_w1, k1 = run_transfer(payload, window=1)
    _, stats_w16, k16 = run_transfer(payload, window=16)
    assert k1.now > k16.now  # pipelining speeds up the transfer
    assert stats_w1["sent"] >= stats_w16["sent"] - stats_w16["retransmitted"]


def test_extreme_loss_eventually_fails():
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel, loss_rate=0.98)
    sender = ReliableSender(
        kernel, link_a, "enzianA", "enzianB", max_retries=5, timeout_ns=10_000
    )
    ReliableReceiver(kernel, link_b, "enzianB", "enzianA")
    with pytest.raises(ConnectionError):
        kernel.run_process(sender.send(bytes(10_000)))


def test_parameter_validation():
    kernel = Kernel()
    switch, link_a, _ = two_hosts_via_switch(kernel)
    with pytest.raises(ValueError):
        ReliableSender(kernel, link_a, "a", "b", window=0)
    with pytest.raises(ValueError):
        ReliableSender(kernel, link_a, "a", "b", mtu=10)


def test_in_order_delivery_callback():
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel, loss_rate=0.1)
    chunks = []
    sender = ReliableSender(kernel, link_a, "enzianA", "enzianB", mtu=100)
    ReliableReceiver(
        kernel, link_b, "enzianB", "enzianA", deliver=lambda d: chunks.append(d)
    )
    payload = bytes(i % 256 for i in range(2_000))
    kernel.run_process(sender.send(payload))
    assert b"".join(chunks) == payload


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    size=st.integers(min_value=0, max_value=30_000),
    loss=st.floats(min_value=0.0, max_value=0.3),
    window=st.integers(min_value=1, max_value=64),
)
def test_reliable_delivery_property(size, loss, window):
    payload = bytes(i % 256 for i in range(size))
    receiver, _, _ = run_transfer(payload, loss_rate=loss, window=window)
    assert receiver.data == payload


def test_aborted_transfer_is_typed_and_counted():
    """Exhausting the retry budget raises TransferAborted with state."""
    from repro.net import TransferAborted
    from repro.obs import MetricsRegistry

    kernel = Kernel()
    obs = MetricsRegistry()
    switch, link_a, link_b = two_hosts_via_switch(kernel, loss_rate=0.95)
    sender = ReliableSender(
        kernel, link_a, "enzianA", "enzianB",
        max_retries=4, timeout_ns=10_000, obs=obs,
    )
    ReliableReceiver(kernel, link_b, "enzianB", "enzianA")
    with pytest.raises(TransferAborted) as excinfo:
        kernel.run_process(sender.send(bytes(10_000)))
    err = excinfo.value
    assert isinstance(err, ConnectionError)  # back-compat for callers
    assert err.retries == 5
    assert err.total == 7  # ceil(10000 / 1500)
    assert 0 <= err.delivered < err.total
    assert err.stats["aborted"] == 1
    assert obs.counter("net_transfers_aborted_total").value == 1


def test_backoff_grows_and_resets():
    """Consecutive timeouts double the timer; progress resets it."""
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel)
    sender = ReliableSender(
        kernel, link_a, "enzianA", "enzianB",
        timeout_ns=1_000.0, backoff=2.0, max_timeout_ns=8_000.0, max_retries=50,
    )
    # No receiver attached to the far side: every window times out.  The
    # switch forwards into the void, so ACKs never come back.
    timeouts = []
    original = sender._transmit

    def spy(index):
        timeouts.append(kernel.now)
        original(index)

    sender._transmit = spy
    from repro.net import TransferAborted

    with pytest.raises((TransferAborted, ValueError)):
        kernel.run_process(sender.send(b"x"))
    gaps = [b - a for a, b in zip(timeouts, timeouts[1:])]
    assert len(gaps) >= 4
    # Exponential up to the cap: each gap is about double the previous.
    assert gaps[1] > gaps[0] * 1.5
    assert gaps[2] > gaps[1] * 1.5
    assert max(gaps) <= 8_000.0 + 1_000.0  # capped at max_timeout_ns (+ser slack)


def test_backoff_validation():
    kernel = Kernel()
    switch, link_a, _ = two_hosts_via_switch(kernel)
    with pytest.raises(ValueError):
        ReliableSender(kernel, link_a, "a", "b", backoff=0.5)


# -- jittered backoff (repro.health satellite): deterministic by seed --------


def run_jittered_transfer(seed, jitter, loss_rate=0.10):
    """A lossy transfer whose backoff jitter draws from kernel.rng."""
    kernel = Kernel(seed=seed)
    switch, link_a, link_b = two_hosts_via_switch(kernel, loss_rate=loss_rate)
    sender = ReliableSender(
        kernel, link_a, "enzianA", "enzianB",
        timeout_ns=5_000.0, max_retries=60, backoff=2.0, jitter=jitter,
    )
    receiver = ReliableReceiver(kernel, link_b, "enzianB", "enzianA")
    payload = bytes(i % 251 for i in range(20_000))
    stats = kernel.run_process(sender.send(payload))
    assert receiver.data == payload
    return stats, kernel.now


def test_jittered_backoff_is_deterministic_per_seed():
    """Same seed -> bit-identical stats and finish time, jitter and all."""
    first = run_jittered_transfer(seed=42, jitter=0.25)
    second = run_jittered_transfer(seed=42, jitter=0.25)
    assert first == second
    other_seed = run_jittered_transfer(seed=43, jitter=0.25)
    assert other_seed != first


def test_zero_jitter_is_bit_identical_to_unjittered_sender():
    """jitter=0.0 must not draw from the RNG: exact legacy behaviour."""

    def run(**kwargs):
        kernel = Kernel(seed=7)
        switch, link_a, link_b = two_hosts_via_switch(kernel, loss_rate=0.10)
        sender = ReliableSender(
            kernel, link_a, "enzianA", "enzianB",
            timeout_ns=5_000.0, max_retries=60, backoff=2.0, **kwargs,
        )
        ReliableReceiver(kernel, link_b, "enzianB", "enzianA")
        stats = kernel.run_process(sender.send(bytes(20_000)))
        return stats, kernel.now

    assert run(jitter=0.0) == run()


def test_jitter_spreads_retry_timing():
    """Non-zero jitter shifts the retransmission timeline."""
    _, plain_now = run_jittered_transfer(seed=42, jitter=0.0)
    _, jittered_now = run_jittered_transfer(seed=42, jitter=0.25)
    assert jittered_now != plain_now


def test_jitter_validation():
    kernel = Kernel()
    switch, link_a, _ = two_hosts_via_switch(kernel)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            ReliableSender(kernel, link_a, "a", "b", jitter=bad)


def test_breaker_guards_the_send_path():
    """A tripped circuit breaker fails the transfer fast and typed."""
    from repro.health import CircuitBreaker, CircuitOpenError

    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel)
    breaker = CircuitBreaker(
        "net", clock=lambda: kernel.now, failure_threshold=1, reset_ns=10_000_000.0,
        half_open_probes=1,
    )
    breaker.record_failure()  # trip it
    sender = ReliableSender(kernel, link_a, "a", "b", breaker=breaker)
    with pytest.raises(CircuitOpenError):
        kernel.run_process(sender.send(b"payload"))


def test_breaker_records_aborts_as_failures():
    from repro.health import BreakerState, CircuitBreaker
    from repro.net import TransferAborted

    kernel = Kernel()
    switch, link_a, _ = two_hosts_via_switch(kernel)  # no receiver: no ACKs
    breaker = CircuitBreaker(
        "net", clock=lambda: kernel.now, failure_threshold=1, reset_ns=10_000_000.0,
        half_open_probes=1,
    )
    sender = ReliableSender(
        kernel, link_a, "a", "b", timeout_ns=100.0, max_retries=2,
        breaker=breaker,
    )
    with pytest.raises(TransferAborted):
        kernel.run_process(sender.send(b"payload"))
    assert breaker.state is BreakerState.OPEN
