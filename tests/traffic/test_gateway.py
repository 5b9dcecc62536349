"""Gateway unit behavior: token bucket, shedding, cache, batching."""

import pytest

from repro.config import FleetConfig
from repro.fleet import HistoryRecorder, Rack
from repro.sim import Kernel
from repro.traffic import (
    Gateway,
    GatewayConfig,
    LruCache,
    Request,
    TokenBucket,
    TrafficConfig,
    build_classes,
)
from repro.traffic.config import RequestClassConfig

pytestmark = pytest.mark.traffic


# -- token bucket ----------------------------------------------------------

def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate_per_ns=0.001, burst=3)  # 1 token per µs
    assert [bucket.take(0.0) for _ in range(3)] == [True, True, True]
    assert bucket.take(0.0) is False
    assert bucket.take(500.0) is False  # half a token accrued
    assert bucket.take(1_500.0) is True  # 1.5 tokens since t=0
    assert bucket.take(1_500.0) is False


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate_per_ns=1.0, burst=2)
    assert bucket.take(1e9) is True
    assert bucket.take(1e9) is True
    assert bucket.take(1e9) is False


# -- LRU cache -------------------------------------------------------------

def test_lru_cache_evicts_least_recently_used():
    cache = LruCache(2)
    cache.fill(b"a", b"1")
    cache.fill(b"b", b"2")
    assert cache.lookup(b"a") == b"1"  # refresh a
    cache.fill(b"c", b"3")  # evicts b
    assert cache.lookup(b"b") is None
    assert cache.lookup(b"a") == b"1"
    assert cache.lookup(b"c") == b"3"
    assert cache.evictions == 1


def test_lru_cache_invalidate_and_zero_slots():
    cache = LruCache(0)
    cache.fill(b"a", b"1")
    assert len(cache) == 0
    cache = LruCache(4)
    cache.fill(b"a", b"1")
    cache.invalidate(b"a")
    assert cache.lookup(b"a") is None


# -- service-class fixtures (no rack needed) -------------------------------

def _service_gateway(kernel, **gw_overrides):
    """A gateway over service-time classes only (no KVS clients)."""
    traffic = TrafficConfig(
        enabled=True,
        classes=(
            RequestClassConfig("recsys", weight=1.0),
            RequestClassConfig("gbdt", weight=1.0),
        ),
    )
    classes = {c.kind: c for c in build_classes(traffic)}
    gateway = Gateway(kernel, GatewayConfig(**gw_overrides), clients=[])
    return gateway, classes


def _request(kernel, cls, key=b"k"):
    return Request(cls, key, b"", "steady", kernel.now)


def test_queue_depth_shedding_is_typed():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, max_queue_depth=2, admit_rps=1e12, admit_burst=100,
        cache_slots=0, workers=1,
    )
    cls = classes["gbdt"]
    accepted = [gateway.submit(_request(kernel, cls)) for _ in range(5)]
    assert accepted == [True, True, False, False, False]
    assert gateway.stats["rejected_shed"] == 3
    assert gateway.stats["rejected_throttled"] == 0
    assert all(r.reason == "shed" for r in gateway.rejections)
    assert {r.kind for r in gateway.rejections} == {"gbdt"}


def test_token_bucket_throttling_is_typed():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, admit_rps=1_000.0, admit_burst=1, cache_slots=0,
    )
    cls = classes["gbdt"]
    assert gateway.submit(_request(kernel, cls)) is True
    assert gateway.submit(_request(kernel, cls)) is False
    assert gateway.stats["rejected_throttled"] == 1
    assert gateway.rejections[-1].reason == "throttled"


def test_rejected_requests_carry_their_outcome():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, admit_rps=1_000.0, admit_burst=1, cache_slots=0,
    )
    first = _request(kernel, classes["recsys"])
    second = _request(kernel, classes["recsys"])
    gateway.submit(first)
    gateway.submit(second)
    assert second.outcome == "rejected:throttled"


def test_admission_off_admits_everything():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, admission=False, admit_rps=1.0, admit_burst=1,
        max_queue_depth=1, cache_slots=0,
    )
    for _ in range(50):
        assert gateway.submit(_request(kernel, classes["gbdt"])) is True
    assert gateway.stats["admitted"] == 50
    assert not gateway.rejections


def test_cacheable_class_hits_after_first_serve():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(kernel, workers=1)
    kernel.spawn(gateway.worker(0), name="worker")
    cls = classes["recsys"]  # cacheable
    gateway.submit(_request(kernel, cls, key=b"user:1"))
    kernel.run()
    assert gateway.stats["completed"] == 1
    hit = _request(kernel, cls, key=b"user:1")
    gateway.submit(hit)
    assert hit.outcome == "cache_hit"
    kernel.run()
    assert gateway.stats["cache_hits"] == 1
    assert gateway.stats["completed"] == 2
    assert gateway.cache.hits == 1


def test_non_cacheable_class_never_hits():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(kernel, workers=1)
    kernel.spawn(gateway.worker(0), name="worker")
    cls = classes["gbdt"]  # not cacheable
    for _ in range(3):
        gateway.submit(_request(kernel, cls, key=b"same"))
        kernel.run()
    assert gateway.stats["cache_hits"] == 0


def test_batching_drains_bursts_in_one_batch():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, workers=1, batch_max=8, cache_slots=0,
    )
    kernel.spawn(gateway.worker(0), name="worker")
    for _ in range(8):
        gateway.submit(_request(kernel, classes["gbdt"]))
    kernel.run()
    assert gateway.stats["completed"] == 8
    assert gateway.stats["batches"] == 1
    assert gateway.stats["batched_requests"] == 8


def test_batch_max_one_disables_batching():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, workers=1, batch_max=1, batch_window_ns=0.0, cache_slots=0,
    )
    kernel.spawn(gateway.worker(0), name="worker")
    for _ in range(4):
        gateway.submit(_request(kernel, classes["gbdt"]))
    kernel.run()
    assert gateway.stats["batches"] == 4


# -- KVS write-through (needs a rack) --------------------------------------

def test_put_write_through_serves_the_next_get_from_cache():
    fleet = FleetConfig(enabled=True, machines=2, replication_factor=1, seed=5)
    rack = Rack(fleet)
    kernel = rack.kernel
    traffic = TrafficConfig(enabled=True)
    classes = {c.kind: c for c in build_classes(traffic)}
    client = rack.client("gw0")
    gateway = Gateway(kernel, GatewayConfig(workers=1), clients=[client])
    kernel.spawn(gateway.worker(0), name="worker")

    put = Request(classes["kvs_put"], b"u:1", b"profile", "steady", kernel.now)
    gateway.submit(put)
    kernel.run()
    assert put.outcome == "served"
    assert client.stats["puts_acked"] == 1

    get = Request(classes["kvs_get"], b"u:1", b"", "steady", kernel.now)
    gateway.submit(get)
    kernel.run()
    assert get.outcome == "cache_hit"
    assert gateway.stats["cache_hits"] == 1
    assert client.stats["gets"] == 0, "cache hit must not touch the backend"


# -- worker dispatch order -------------------------------------------------

def _dispatch_scenario(arrivals, workers=3):
    """Submit ``arrivals`` ([(t_ns, key), ...]) as KVS puts to a rack-backed
    gateway with ``workers`` parked workers (one client port each,
    ``batch_max=2``, a 1 us batch window).  Returns
    ``{key: (completion_ns, client_port)}``."""
    fleet = FleetConfig(enabled=True, machines=3, replication_factor=1, seed=5)
    rack = Rack(fleet)
    kernel = rack.kernel
    clients = [rack.client(f"gw{i}") for i in range(workers)]
    recorder = HistoryRecorder(lambda: kernel.now)
    for client in clients:
        recorder.attach(client)
    config = GatewayConfig(
        workers=workers, batch_max=2, batch_window_ns=1_000.0,
        batch_overhead_ns=100.0, cache_slots=0, admission=False,
    )
    gateway = Gateway(kernel, config, clients=clients)
    for i in range(workers):
        kernel.spawn(gateway.worker(i), name=f"worker{i}")
    put = {c.kind: c for c in build_classes(TrafficConfig(enabled=True))}["kvs_put"]

    def arrive(key):
        gateway.submit(Request(put, key, b"v", "steady", kernel.now))

    for t_ns, key in arrivals:
        kernel.call_at(t_ns, arrive, key)
    kernel.run()
    assert gateway.stats["completed"] == len(arrivals)
    # The gateway completes a put the moment its client op responds.
    done = {op.key: (op.respond_ts[0], op.client) for op in recorder.ops}
    return {key: done[key] for _, key in arrivals}


def test_dispatch_one_arrival_into_idle_pool():
    # Every parked worker sees a short batch and joins the window; when
    # it closes, the first in FIFO order takes the request.
    assert _dispatch_scenario([(1_000.0, b"k0")]) == {
        b"k0": (5620.32, "gw0#kvs"),
    }


def test_dispatch_burst_larger_than_batch_max():
    # Two full batches go out at once; the odd request waits out the
    # window on the third worker.
    burst = [(1_000.0, b"b%d" % i) for i in range(5)]
    assert _dispatch_scenario(burst) == {
        b"b0": (4620.320000000001, "gw0#kvs"),
        b"b1": (8140.64, "gw0#kvs"),
        b"b2": (4625.52, "gw1#kvs"),
        b"b3": (8145.84, "gw1#kvs"),
        b"b4": (5620.32, "gw2#kvs"),
    }


def test_dispatch_arrivals_while_a_window_is_open():
    # Later arrivals find no idle worker and queue behind the open
    # window; when it closes the group hands out one full batch and
    # one short one, in FIFO order.
    arrivals = [(1_000.0, b"w0"), (1_400.0, b"w1"), (1_700.0, b"w2")]
    assert _dispatch_scenario(arrivals) == {
        b"w0": (5620.32, "gw0#kvs"),
        b"w1": (9140.64, "gw0#kvs"),
        b"w2": (5620.32, "gw1#kvs"),
    }


def test_dispatch_worker_finishing_into_a_short_queue():
    # All three workers are busy when f6 arrives.  gw0 and gw2 finish
    # at the same instant; gw0 finishes first in event order, finds a
    # short queue and waits out its own window before taking f6.
    arrivals = [(1_000.0, b"f%d" % i) for i in range(6)] + [(1_500.0, b"f6")]
    assert _dispatch_scenario(arrivals) == {
        b"f0": (4620.320000000001, "gw0#kvs"),
        b"f1": (8140.64, "gw0#kvs"),
        b"f2": (4625.52, "gw1#kvs"),
        b"f3": (8145.84, "gw1#kvs"),
        b"f4": (4620.320000000001, "gw2#kvs"),
        b"f5": (8140.64, "gw2#kvs"),
        b"f6": (12760.96, "gw0#kvs"),
    }


@pytest.mark.parametrize("window_ns", [0.0, 2_000.0])
def test_events_per_submit_do_not_grow_with_idle_workers(window_ns):
    """One submit into an idle pool costs the same number of kernel
    events however many workers are parked: one dispatch event (plus,
    with a window, one shared timer), not one wake-up per worker."""

    def events_for_one_submit(workers):
        kernel = Kernel(seed=1)
        gateway, classes = _service_gateway(
            kernel, workers=workers, batch_max=2, batch_window_ns=window_ns,
            cache_slots=0,
        )
        for i in range(workers):
            kernel.spawn(gateway.worker(i), name=f"worker{i}")
        kernel.run()
        before = kernel.snapshot_state()["seq"]
        gateway.submit(_request(kernel, classes["gbdt"]))
        kernel.run()
        assert gateway.stats["completed"] == 1
        return kernel.snapshot_state()["seq"] - before

    counts = [events_for_one_submit(w) for w in (1, 4, 32)]
    assert counts[0] == counts[1] == counts[2], counts
