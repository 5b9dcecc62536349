"""Tests for Ethernet links and the switch."""

import pytest

from repro.net import EthernetLink, Frame, Switch, two_hosts_via_switch
from repro.sim import Kernel


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame("a", "b", None, size_bytes=0)
    frame = Frame("a", "b", None, size_bytes=100)
    assert frame.wire_bytes == 138


def test_link_delivers_with_latency():
    kernel = Kernel()
    link = EthernetLink(kernel, rate_gbps=100.0, propagation_ns=500.0)
    arrivals = []
    link.attach("b", lambda f: arrivals.append(kernel.now))
    link.send(Frame("a", "b", None, size_bytes=1500))
    kernel.run()
    ser = (1500 + 38) / 12.5
    assert arrivals[0] == pytest.approx(ser + 500.0)


def test_link_serializes_back_to_back():
    kernel = Kernel()
    link = EthernetLink(kernel, rate_gbps=100.0, propagation_ns=0.0)
    arrivals = []
    link.attach("b", lambda f: arrivals.append(kernel.now))
    for _ in range(3):
        link.send(Frame("a", "b", None, size_bytes=1500))
    kernel.run()
    deltas = [y - x for x, y in zip(arrivals, arrivals[1:])]
    ser = (1500 + 38) / 12.5
    assert all(d == pytest.approx(ser) for d in deltas)


def test_unknown_destination_without_uplink_raises():
    kernel = Kernel()
    link = EthernetLink(kernel)
    with pytest.raises(ValueError):
        link.send(Frame("a", "nowhere", None, size_bytes=64))


def test_loss_rate_drops_frames():
    kernel = Kernel()
    link = EthernetLink(kernel, loss_rate=0.5, seed=42)
    received = []
    link.attach("b", lambda f: received.append(f))
    for _ in range(200):
        link.send(Frame("a", "b", None, size_bytes=64))
    kernel.run()
    assert 40 < len(received) < 160
    assert link.stats["dropped"] == 200 - len(received)


def test_loss_rate_validation():
    kernel = Kernel()
    with pytest.raises(ValueError):
        EthernetLink(kernel, loss_rate=1.0)
    with pytest.raises(ValueError):
        EthernetLink(kernel, rate_gbps=0)


def test_switch_forwards_between_hosts():
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel)
    received = []
    link_a.attach("enzianA", lambda f: received.append(("A", f.payload)))
    link_b.attach("enzianB", lambda f: received.append(("B", f.payload)))
    link_a.send(Frame("enzianA", "enzianB", "ping", size_bytes=64))
    kernel.run()
    assert received == [("B", "ping")]
    assert switch.stats["forwarded"] == 1


def test_switch_bidirectional():
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel)
    received = []
    link_a.attach("enzianA", lambda f: received.append("A"))
    link_b.attach("enzianB", lambda f: received.append("B"))
    link_a.send(Frame("enzianA", "enzianB", None, size_bytes=64))
    link_b.send(Frame("enzianB", "enzianA", None, size_bytes=64))
    kernel.run()
    assert sorted(received) == ["A", "B"]


def test_switch_drops_unknown_mac():
    kernel = Kernel()
    switch, link_a, _ = two_hosts_via_switch(kernel)
    link_a.send(Frame("enzianA", "ghost", None, size_bytes=64))
    kernel.run()
    assert switch.stats["dropped_unknown"] == 1


def test_switch_adds_forwarding_latency():
    kernel = Kernel()
    switch, link_a, link_b = two_hosts_via_switch(kernel)
    direct_times, switched_times = [], []
    link_b.attach("enzianB", lambda f: switched_times.append(kernel.now))
    link_a.send(Frame("enzianA", "enzianB", None, size_bytes=64))
    kernel.run()
    # Through-switch time exceeds twice the one-link serialization+prop.
    one_link = (64 + 38) / 12.5 + 500.0
    assert switched_times[0] >= 2 * one_link


def test_duplicate_connect_rejected():
    kernel = Kernel()
    switch = Switch(kernel)
    link = EthernetLink(kernel)
    switch.connect(link, "h")
    with pytest.raises(ValueError):
        switch.connect(link, "h")


# -- fleet generalizations: typed errors, star topology, egress queueing ------

def test_uplink_overwrite_is_a_typed_error():
    from repro.net import LinkAttachError

    kernel = Kernel()
    link = EthernetLink(kernel)
    sink_a, sink_b = (lambda f: None), (lambda f: None)
    link.set_uplink(sink_a)
    link.set_uplink(sink_a)  # re-registering the same handler is fine
    with pytest.raises(LinkAttachError):
        link.set_uplink(sink_b)
    # Plugging one link into two switches hits the same guard.
    s1, s2 = Switch(kernel, name="s1"), Switch(kernel, name="s2")
    link2 = EthernetLink(kernel)
    s1.connect(link2, "h")
    with pytest.raises(LinkAttachError):
        s2.connect(link2, "h")


def test_duplicate_attach_is_a_typed_error():
    from repro.net import LinkAttachError

    kernel = Kernel()
    link = EthernetLink(kernel)
    link.attach("a", lambda f: None)
    with pytest.raises(LinkAttachError):
        link.attach("a", lambda f: None)
    # LinkAttachError subclasses ValueError: pre-fleet callers that
    # caught the untyped error keep working.
    assert issubclass(LinkAttachError, ValueError)


def test_duplicate_connect_is_a_switch_port_error():
    from repro.net import SwitchPortError

    kernel = Kernel()
    switch = Switch(kernel)
    switch.connect(EthernetLink(kernel, name="l1"), "h")
    with pytest.raises(SwitchPortError):
        switch.connect(EthernetLink(kernel, name="l2"), "h")
    assert issubclass(SwitchPortError, ValueError)


def test_star_topology_wires_n_hosts():
    from repro.net import star_topology

    kernel = Kernel()
    hosts = [f"h{i}" for i in range(5)]
    switch, links = star_topology(kernel, hosts)
    assert set(links) == set(hosts)
    assert switch.ports == tuple(hosts)
    received = []
    for host in hosts:
        links[host].attach(host, lambda f, h=host: received.append((h, f.payload)))
    # Every host pings its clockwise neighbour; all arrive.
    for i, host in enumerate(hosts):
        peer = hosts[(i + 1) % len(hosts)]
        links[host].send(Frame(host, peer, f"from-{host}", size_bytes=64))
    kernel.run()
    assert sorted(received) == sorted(
        (hosts[(i + 1) % len(hosts)], f"from-{h}") for i, h in enumerate(hosts)
    )
    assert switch.stats["forwarded"] == len(hosts)


def test_star_topology_requires_two_hosts():
    from repro.net import SwitchPortError, star_topology

    with pytest.raises(SwitchPortError):
        star_topology(Kernel(), ["only"])


def test_per_flow_ordering_through_switch():
    """Frames of one flow arrive in send order even through fan-in."""
    from repro.net import star_topology

    kernel = Kernel()
    switch, links = star_topology(
        kernel, ["h0", "h1", "h2"], egress_queueing=True
    )
    arrivals = []
    links["h2"].attach("h2", lambda f: arrivals.append(f.payload))
    for i in range(6):
        src = "h0" if i % 2 == 0 else "h1"
        links[src].send(Frame(src, "h2", (src, i), size_bytes=1500))
    kernel.run()
    assert [i for s, i in arrivals if s == "h0"] == [0, 2, 4]
    assert [i for s, i in arrivals if s == "h1"] == [1, 3, 5]


def test_egress_queueing_backpressures_fan_in():
    """Two senders saturating one downlink: with output queueing the
    second flow's frames serialize behind the first's, so the last
    arrival is later than without queueing."""
    from repro.net import star_topology

    def last_arrival(egress_queueing):
        kernel = Kernel()
        switch, links = star_topology(
            kernel, ["h0", "h1", "h2"], egress_queueing=egress_queueing
        )
        arrivals = []
        links["h2"].attach("h2", lambda f: arrivals.append(kernel.now))
        for i in range(8):
            links["h0"].send(Frame("h0", "h2", i, size_bytes=1500))
            links["h1"].send(Frame("h1", "h2", i, size_bytes=1500))
        kernel.run()
        return max(arrivals), len(arrivals)

    queued_t, queued_n = last_arrival(True)
    legacy_t, legacy_n = last_arrival(False)
    assert queued_n == legacy_n == 16
    assert queued_t > legacy_t
    # 16 x 1538 B at 100 Gb/s through one egress port: the drain time is
    # bounded below by the port's serialization of every frame.
    ser = (1500 + 38) / 12.5
    assert queued_t >= 16 * ser


def test_two_host_helper_timing_unchanged_by_flag():
    """two_hosts_via_switch never opts into queueing: single-flow
    timing through the legacy helper equals an explicitly unqueued
    star -- the bit-identical back-compat contract."""
    from repro.net import star_topology

    def run(topology):
        kernel = Kernel()
        if topology == "legacy":
            _, link_a, link_b = two_hosts_via_switch(kernel)
            links = {"enzianA": link_a, "enzianB": link_b}
        else:
            _, links = star_topology(kernel, ["enzianA", "enzianB"])
        arrivals = []
        links["enzianB"].attach("enzianB", lambda f: arrivals.append(kernel.now))
        for i in range(4):
            links["enzianA"].send(Frame("enzianA", "enzianB", i, size_bytes=700))
        kernel.run()
        return arrivals

    assert run("legacy") == run("star")


# -- partitions --------------------------------------------------------------

def _partitioned_pair():
    from repro.net.switch import star_topology

    kernel = Kernel()
    switch, links = star_topology(kernel, ["a", "b", "c"])
    received = []
    for host in ("a", "b", "c"):
        links[host].attach(
            host, lambda f, h=host: received.append((h, f.payload))
        )
    return kernel, switch, links, received


@pytest.mark.partition
def test_partition_drops_cross_group_frames_both_ways():
    kernel, switch, links, received = _partitioned_pair()
    switch.set_partition([("a", "b"), ("c",)])
    links["a"].send(Frame("a", "c", "a->c", size_bytes=64))
    links["c"].send(Frame("c", "a", "c->a", size_bytes=64))
    links["a"].send(Frame("a", "b", "a->b", size_bytes=64))
    kernel.run()
    assert sorted(received) == [("b", "a->b")]
    assert switch.stats["dropped_partitioned"] == 2
    assert switch.stats["forwarded"] == 1


@pytest.mark.partition
def test_oneway_partition_drops_only_forward_direction():
    kernel, switch, links, received = _partitioned_pair()
    switch.set_partition([("a",), ("c",)], oneway=True)
    links["a"].send(Frame("a", "c", "a->c", size_bytes=64))
    links["c"].send(Frame("c", "a", "c->a", size_bytes=64))
    kernel.run()
    assert received == [("a", "c->a")]
    assert switch.stats["dropped_partitioned"] == 1


@pytest.mark.partition
def test_unlisted_hosts_ride_with_group_zero():
    kernel, switch, links, received = _partitioned_pair()
    switch.set_partition([("a",), ("c",)])  # b unlisted -> group 0
    links["b"].send(Frame("b", "a", "b->a", size_bytes=64))
    links["b"].send(Frame("b", "c", "b->c", size_bytes=64))
    kernel.run()
    assert received == [("a", "b->a")]
    assert switch.stats["dropped_partitioned"] == 1


@pytest.mark.partition
def test_partition_window_is_evaluated_lazily():
    """No scheduled heal event: delivery resumes at until_ns purely by
    clock comparison, and intra-window frames are the only casualties."""
    kernel, switch, links, received = _partitioned_pair()
    switch.set_partition([("a",), ("c",)], start_ns=1_000.0, until_ns=5_000.0)
    assert kernel.pending_events == 0  # the window armed nothing

    links["a"].send(Frame("a", "c", "early", size_bytes=64))   # before start
    kernel.run()
    kernel.call_at(2_000.0, lambda _: links["a"].send(
        Frame("a", "c", "mid", size_bytes=64)))                # inside window
    kernel.run()
    kernel.call_at(6_000.0, lambda _: links["a"].send(
        Frame("a", "c", "late", size_bytes=64)))               # past until
    kernel.run()
    assert [p for _, p in received] == ["early", "late"]
    assert switch.stats["dropped_partitioned"] == 1
    assert switch.partition is not None  # descriptor stays until cleared
    assert not switch.partition_active()


@pytest.mark.partition
def test_partition_validation():
    from repro.net.switch import SwitchPortError

    kernel, switch, links, received = _partitioned_pair()
    with pytest.raises(SwitchPortError, match="at least 2"):
        switch.set_partition([("a", "b", "c")])
    with pytest.raises(SwitchPortError, match="exactly 2"):
        switch.set_partition([("a",), ("b",), ("c",)], oneway=True)
    with pytest.raises(SwitchPortError, match="empty"):
        switch.set_partition([("a",), ()])
    with pytest.raises(SwitchPortError, match="appears in partition groups"):
        switch.set_partition([("a", "b"), ("b", "c")])


@pytest.mark.partition
def test_partition_state_round_trips_through_snapshot():
    kernel, switch, links, received = _partitioned_pair()
    switch.set_partition(
        [("a", "b"), ("c",)], oneway=True, start_ns=0.0, until_ns=99.0
    )
    state = switch.snapshot_state()

    kernel2 = Kernel()
    from repro.net.switch import star_topology

    switch2, links2 = star_topology(kernel2, ["a", "b", "c"])
    switch2.restore_state(state)
    assert switch2.partition == switch.partition
    assert switch2._partitioned("a", "c")
    assert not switch2._partitioned("c", "a")  # oneway: reverse passes


# -- bad parameters fail when they are set, not at the first send ------------

NAN = float("nan")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rate_gbps": NAN},
        {"rate_gbps": -1.0},
        {"propagation_ns": -1.0},
        {"propagation_ns": NAN},
    ],
)
def test_link_rejects_bad_parameters_at_construction(kwargs):
    with pytest.raises(ValueError):
        EthernetLink(Kernel(), **kwargs)


@pytest.mark.parametrize("forwarding_ns", [-1.0, NAN])
def test_switch_rejects_bad_forwarding_latency(forwarding_ns):
    from repro.net.switch import star_topology

    with pytest.raises(ValueError):
        Switch(Kernel(), forwarding_ns=forwarding_ns)
    with pytest.raises(ValueError):
        star_topology(Kernel(), ["a", "b"], forwarding_ns=forwarding_ns)
    with pytest.raises(ValueError):
        star_topology(Kernel(), ["a", "b"], propagation_ns=forwarding_ns)


@pytest.mark.partition
@pytest.mark.parametrize(
    "start_ns, until_ns",
    [(5_000.0, 5_000.0), (5_000.0, 1_000.0), (0.0, NAN), (NAN, 1_000.0), (NAN, None)],
)
def test_partition_rejects_an_empty_or_invalid_window(start_ns, until_ns):
    from repro.net.switch import SwitchPortError

    kernel, switch, links, received = _partitioned_pair()
    with pytest.raises(SwitchPortError, match="window"):
        switch.set_partition([("a",), ("c",)], start_ns=start_ns, until_ns=until_ns)
    assert switch.partition is None


# -- frames are slotted records ----------------------------------------------


def test_frame_equality_repr_and_construction():
    frame = Frame("a", "b", ("p", 1), size_bytes=100, seq=7)
    assert frame == Frame(src="a", dst="b", payload=("p", 1), size_bytes=100, seq=7)
    assert frame != Frame("a", "b", ("p", 1), 100)
    assert Frame("a", "b", None, 64).seq == 0
    assert hash(frame) == hash(Frame("a", "b", ("p", 1), 100, 7))
    assert repr(frame) == (
        "Frame(src='a', dst='b', payload=('p', 1), size_bytes=100, seq=7)"
    )
    assert not hasattr(frame, "__dict__")
    with pytest.raises(ValueError, match="positive size"):
        Frame("a", "b", None, size_bytes=-3)
