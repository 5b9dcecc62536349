"""Concurrent multi-client histories through one auditor.

PR goal: N concurrent ``FleetKvsClient``s feed one shared
:class:`HistoryRecorder` (one kernel clock + tick counter gives their
interleaved operations a consistent global order) and
:func:`check_history` verifies the *interleaved* history -- including
under partitions.  ``max_concurrency()`` guards against the vacuous
case where a passing audit is just an accidentally sequential
schedule."""

import pytest

from repro.config import FleetConfig
from repro.fleet import (
    FleetKvsError,
    HistoryRecorder,
    Rack,
    assert_linearizable,
    check_history,
)
from repro.obs import MetricsRegistry
from repro.sim import Timeout

pytestmark = [pytest.mark.fleet, pytest.mark.partition, pytest.mark.chaos]

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")

SHARED_KEYS = (b"shared-0", b"shared-1", b"shared-2", b"shared-3")


def _rack(**overrides):
    defaults = dict(
        enabled=True,
        machines=6,
        replication_factor=3,
        seed=0xC0AD17,
    )
    defaults.update(overrides)
    obs = MetricsRegistry()
    return Rack(FleetConfig(**defaults), obs=obs)


def _attach_clients(rack, n):
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    clients = [rack.client(f"c{i}") for i in range(n)]
    for client in clients:
        recorder.attach(client)
    return recorder, clients


def _workload(client, index, rounds=10):
    """One client hammering the shared keys: put then read-back, no
    think time.  Every client works the *same* key each round (they
    advance in near-lockstep), so the per-key histories genuinely
    overlap."""

    def run():
        for i in range(rounds):
            key = SHARED_KEYS[i % len(SHARED_KEYS)]
            try:
                yield from client.put(key, b"%s=%d" % (client.address.encode(), i))
                yield from client.get(key)
            except FleetKvsError:
                pass  # unavailable mid-fault; the audit handles unknowns
            yield Timeout(1_000.0 + 100.0 * index)

    return run()


def test_three_concurrent_clients_produce_one_linearizable_history():
    rack = _rack()
    recorder, clients = _attach_clients(rack, 3)
    for index, client in enumerate(clients):
        rack.kernel.spawn(_workload(client, index), name=f"load-{index}")
    rack.kernel.run()
    assert recorder.clients == ["c0#kvs", "c1#kvs", "c2#kvs"]
    assert recorder.max_concurrency() > 1, "schedule was accidentally sequential"
    report = assert_linearizable(recorder)
    assert report.summary()["ops"] == len(recorder)


def test_concurrent_audit_passes_through_a_partition_and_heal():
    """The headline claim: the interleaved multi-client history stays
    linearizable while the rack splits 4-vs-2 and heals mid-workload."""
    rack = _rack(hinted_handoff=False)
    recorder, clients = _attach_clients(rack, 3)
    rack.kernel.call_at(
        20_000.0,
        lambda _=None: rack.start_partition([MAJ, MIN], until_ns=250_000.0),
    )
    for index, client in enumerate(clients):
        rack.kernel.spawn(
            _workload(client, index, rounds=14), name=f"load-{index}"
        )
    rack.kernel.run()
    # Advance past the partition window (the workload may drain before
    # it closes), heal lazily, and read everything back post-heal.
    rack.kernel.call_at(max(rack.kernel.now, 260_000.0), lambda _=None: None)
    rack.kernel.run()
    rack.maybe_heal()
    assert rack.active_partition is None

    def readback(client):
        for key in SHARED_KEYS:
            yield from client.get(key)

    for index, client in enumerate(clients):
        rack.kernel.spawn(readback(client), name=f"readback-{index}")
    rack.kernel.run()
    assert recorder.max_concurrency() > 1
    assert_linearizable(recorder)
    # The fault actually bit: at least one op had an unknown outcome
    # or was retried -- the run was not a fair-weather schedule.
    assert any(not op.completed for op in recorder.ops) or any(
        client.stats["retries"] > 0 for client in clients
    )


def test_interleaved_stale_read_across_clients_is_caught():
    """Client A's committed write is overwritten by client B; a later
    read seeing A's value again has no valid linearization."""
    recorder = HistoryRecorder(lambda: 0.0)
    w1 = recorder.invoke("a#kvs", "put", b"k", b"v1")
    recorder.respond(w1, True)
    w2 = recorder.invoke("b#kvs", "put", b"k", b"v2")
    recorder.respond(w2, True)
    g = recorder.invoke("a#kvs", "get", b"k", None)
    recorder.respond(g, b"v1")  # stale: v2 wholly preceded this read
    report = check_history(recorder)
    assert not report.ok
    assert report.violations[0].key == b"k"


def test_racing_writers_admit_either_winner():
    """Two clients' puts overlap in real time: a subsequent read may
    observe either one -- both schedules must pass."""
    for winner in (b"v1", b"v2"):
        recorder = HistoryRecorder(lambda: 0.0)
        w1 = recorder.invoke("a#kvs", "put", b"k", b"v1")
        w2 = recorder.invoke("b#kvs", "put", b"k", b"v2")  # overlaps w1
        recorder.respond(w1, True)
        recorder.respond(w2, True)
        g = recorder.invoke("c#kvs", "get", b"k", None)
        recorder.respond(g, winner)
        assert check_history(recorder).ok, winner


def test_max_concurrency_separates_sequential_from_overlapped():
    sequential = HistoryRecorder(lambda: 0.0)
    for i in range(3):
        op = sequential.invoke("a#kvs", "put", b"k", b"v%d" % i)
        sequential.respond(op, True)
    assert sequential.max_concurrency() == 1

    overlapped = HistoryRecorder(lambda: 0.0)
    w1 = overlapped.invoke("a#kvs", "put", b"k", b"v1")
    w2 = overlapped.invoke("b#kvs", "put", b"k", b"v2")
    overlapped.respond(w1, True)
    overlapped.respond(w2, True)
    assert overlapped.max_concurrency() == 2
    assert overlapped.clients == ["a#kvs", "b#kvs"]


def test_traffic_engine_attach_history_feeds_every_client_port():
    """``TrafficEngine.attach_history`` wires all ``CLIENT_PORTS``
    round-robin clients into one recorder; the serving scenario's own
    interleaved history audits clean."""
    from repro.traffic import TrafficConfig, TrafficEngine
    from repro.traffic.config import GatewayConfig, RequestClassConfig

    obs = MetricsRegistry()
    rack = Rack(
        FleetConfig(
            enabled=True, machines=4, replication_factor=2, seed=0xC0AD18
        ),
        obs=obs,
    )
    engine = TrafficEngine(
        rack,
        TrafficConfig(
            enabled=True,
            users=30_000,
            per_user_rps=3.0,
            duration_ns=1_000_000.0,
            key_space=8,  # a hot working set, so ops overlap per key
            classes=(
                RequestClassConfig("kvs_put", weight=1.0),
                RequestClassConfig("kvs_get", weight=3.0),
            ),
            gateway=GatewayConfig(cache_slots=0),
        ),
        obs=obs,
    )
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    engine.attach_history(recorder)
    report = engine.run()
    assert report["gateway"]["completed"] > 0
    assert len(recorder) > 0
    assert len(recorder.clients) > 1  # several ports actually recorded
    assert recorder.max_concurrency() > 1
    assert_linearizable(recorder)
