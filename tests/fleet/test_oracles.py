"""The serving oracles: silent on a clean run, one typed violation each
on a seeded fault.

The clean run is a 1 ms put/get mix from several gateway ports on a
hot working set, so the recorded history overlaps; each seeded fault
breaks exactly one invariant, and exactly its oracle reports it.
"""

from types import SimpleNamespace

import pytest

from repro.config import FleetConfig
from repro.fleet import (
    AuditError,
    FleetError,
    HistoryRecorder,
    OracleError,
    Rack,
    Violation,
    assert_linearizable,
    check_history,
    conservation,
    convergence,
    durability,
    linearizability,
    no_errors,
    read_acked,
    replica_divergence,
    require,
)
from repro.obs import MetricsRegistry
from repro.traffic import TrafficConfig, TrafficEngine
from repro.traffic.config import GatewayConfig, RequestClassConfig

pytestmark = [pytest.mark.fleet, pytest.mark.partition, pytest.mark.chaos]


@pytest.fixture(scope="module")
def clean():
    rack = Rack(FleetConfig(machines=4, replication_factor=2, seed=0x0AC1E), obs=MetricsRegistry())
    engine = TrafficEngine(
        rack,
        TrafficConfig(
            users=30_000,
            per_user_rps=3.0,
            duration_ns=1_000_000.0,
            key_space=8,
            classes=(
                RequestClassConfig("kvs_put", weight=1.0),
                RequestClassConfig("kvs_get", weight=3.0),
            ),
            gateway=GatewayConfig(cache_slots=0),
        ),
    )
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    engine.attach_history(recorder)
    report = engine.run()
    audit = check_history(recorder)
    reads = rack.kernel.run_process(read_acked(engine.clients[0], engine.clients))
    return SimpleNamespace(
        gateway=report["gateway"],
        recorder=recorder,
        audit=audit,
        divergence=replica_divergence(rack),
        writers=engine.clients,
        reads=reads,
    )


def _names(violations):
    return [violation.oracle for violation in violations]


def test_every_oracle_passes_a_clean_run(clean):
    # The run is only a fair subject if it exercised what the oracles read.
    assert clean.gateway["completed"] > 0
    assert len(clean.recorder.clients) > 1
    assert sum(bool(writer.acked) for writer in clean.writers) > 1
    assert clean.reads
    assert conservation(clean.gateway) == []
    assert no_errors(clean.gateway) == []
    assert linearizability(clean.recorder, clean.audit) == []
    assert convergence(clean.divergence) == []
    assert durability(clean.writers, clean.reads) == []


def test_a_request_missing_from_completed_breaks_conservation(clean):
    gateway = dict(clean.gateway, completed=clean.gateway["completed"] - 1)
    assert _names(conservation(gateway)) == ["conservation"]
    assert no_errors(gateway) == []


def test_one_error_on_a_healthy_run_breaks_no_errors(clean):
    gateway = dict(
        clean.gateway,
        completed=clean.gateway["completed"] - 1,
        errors=clean.gateway["errors"] + 1,
    )
    assert _names(no_errors(gateway)) == ["no_errors"]
    assert conservation(gateway) == []


def test_a_stale_read_breaks_linearizability():
    recorder = HistoryRecorder(lambda: 0.0)
    first = recorder.invoke("a#kvs", "put", b"k", b"v1")
    recorder.respond(first, True)
    second = recorder.invoke("a#kvs", "put", b"k", b"v2")
    racing = recorder.invoke("b#kvs", "get", b"k", None)  # overlaps the second put
    recorder.respond(racing, b"v1")
    recorder.respond(second, True)
    stale = recorder.invoke("b#kvs", "get", b"k", None)
    recorder.respond(stale, b"v1")  # the second put wholly preceded it
    assert recorder.max_concurrency() == 2
    violations = linearizability(recorder, check_history(recorder))
    assert _names(violations) == ["linearizability"]
    # It says what assert_linearizable says: the key and its first ops.
    assert "b#kvs get(b'k') -> b'v1'" in violations[0].message
    with pytest.raises(AuditError) as raised:
        assert_linearizable(recorder)
    assert str(raised.value) == violations[0].message


def test_a_sequential_two_client_history_breaks_overlap():
    recorder = HistoryRecorder(lambda: 0.0)
    put = recorder.invoke("a#kvs", "put", b"k", b"v1")
    recorder.respond(put, True)
    get = recorder.invoke("b#kvs", "get", b"k", None)
    recorder.respond(get, b"v1")
    report = check_history(recorder)
    assert report.ok
    assert _names(linearizability(recorder, report)) == ["overlap"]


def _quorum_rack():
    rack = Rack(FleetConfig(machines=6, replication_factor=3, seed=0x0AC1F), obs=MetricsRegistry())
    return rack, rack.client()


def test_a_replica_rolled_back_one_version_breaks_convergence():
    rack, client = _quorum_rack()
    key = b"k"
    target = rack.machines[rack.ring.place(key)[1]]
    rack.kernel.run_process(client.put(key, b"v1"))
    old = target.server.versions[key]
    rack.kernel.run_process(client.put(key, b"v2"))
    assert convergence(replica_divergence(rack)) == []
    target.store.put(key, b"v1")
    target.server.versions[key] = old
    assert _names(convergence(replica_divergence(rack))) == ["convergence"]


def test_measuring_divergence_leaves_every_store_stats_as_it_found_them():
    rack, client = _quorum_rack()

    def puts():
        for i in range(20):
            yield from client.put(b"k%02d" % i, b"v")

    rack.kernel.run_process(puts())
    before = {name: dict(m.store.stats) for name, m in rack.machines.items()}
    assert replica_divergence(rack) == 0
    assert {name: dict(m.store.stats) for name, m in rack.machines.items()} == before


def test_an_acked_key_reading_a_stale_value_breaks_durability_with_one_writer():
    writer = SimpleNamespace(acked={b"k": b"v2", b"j": b"w"})
    assert durability([writer], {b"k": b"v2", b"j": b"w"}) == []
    assert _names(durability([writer], {b"k": b"v1", b"j": b"w"})) == ["durability"]


def test_an_acked_key_reading_none_breaks_durability_with_several_writers():
    writers = [SimpleNamespace(acked={b"k": b"v1"}), SimpleNamespace(acked={b"k": b"v2"})]
    # Another client's later write may win: any value is durable.
    assert durability(writers, {b"k": b"v3"}) == []
    assert _names(durability(writers, {b"k": None})) == ["durability"]


def test_require_raises_one_typed_error_naming_every_violation():
    require([])
    violations = [Violation("conservation", "offered 3 != 2"), Violation("overlap", "sequential")]
    with pytest.raises(OracleError) as raised:
        require(violations)
    assert isinstance(raised.value, FleetError)
    assert str(raised.value) == "conservation: offered 3 != 2; overlap: sequential"
