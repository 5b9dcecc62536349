"""Property: the front door's books balance on any request stream.

Random arrival streams of service-time classes go through a bare
gateway (no rack) with small admission, queue and batching limits, the
cache on or off.  After the kernel drains, the conservation law holds,
every admitted request went out in exactly one batch, and every
registry-backed key of ``Gateway.stats`` equals the registry sum it
names, read here off the plain snapshot."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet import conservation, require
from repro.sim import Kernel
from repro.traffic import (
    LATENCY_METRIC, Gateway, GatewayConfig, Request, TrafficConfig, build_classes,
)
from repro.traffic.config import RequestClassConfig

pytestmark = pytest.mark.traffic

CLASSES = {
    cls.kind: cls
    for cls in build_classes(
        TrafficConfig(
            classes=(
                RequestClassConfig("recsys", weight=1.0),  # cacheable
                RequestClassConfig("gbdt", weight=1.0),
            )
        )
    )
}

#: (gap to the previous arrival in ns, class, key index).
ARRIVALS = st.lists(
    st.tuples(
        st.just(0.0) | st.floats(0.0, 1_500.0),
        st.sampled_from(sorted(CLASSES)),
        st.integers(0, 5),
    ),
    max_size=40,
)


def _summed(obs, name, **labels):
    """The registry sum ``name`` stands for, from the plain snapshot."""
    return sum(
        entry["count"] if entry["kind"] == "histogram" else entry["value"]
        for entry in obs.snapshot()
        if entry["name"] == name and labels.items() <= entry["labels"].items()
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    stream=ARRIVALS,
    admission=st.booleans(),
    admit_burst=st.integers(1, 4),
    max_queue_depth=st.integers(1, 4),
    batch_max=st.integers(1, 3),
    batch_window_ns=st.sampled_from([0.0, 1_500.0]),
    cache=st.booleans(),
    workers=st.integers(1, 3),
)
def test_the_books_balance_on_any_stream(
    stream, admission, admit_burst, max_queue_depth, batch_max, batch_window_ns,
    cache, workers,
):
    kernel = Kernel(seed=1)
    config = GatewayConfig(
        admission=admission,
        admit_rps=1_000_000.0,  # one token per us
        admit_burst=admit_burst,
        max_queue_depth=max_queue_depth,
        workers=workers,
        batch_max=batch_max,
        batch_window_ns=batch_window_ns,
        cache_slots=3 if cache else 0,
    )
    gateway = Gateway(kernel, config, clients=[])
    for i in range(workers):
        kernel.spawn(gateway.worker(i), name=f"worker{i}")

    def arrive(arrival):
        kind, key = arrival
        gateway.submit(Request(CLASSES[kind], b"k%d" % key, b"", "steady", kernel.now))

    t_ns = 0.0
    for gap_ns, kind, key in stream:
        t_ns += gap_ns
        kernel.call_at(t_ns, arrive, (kind, key))
    kernel.run()

    stats = gateway.stats
    require(conservation(stats))
    assert stats["offered"] == len(stream)
    assert stats["admitted"] == (
        stats["offered"]
        - stats["cache_hits"]
        - stats["rejected_throttled"]
        - (stats["rejected_shed"] - stats["shed_breaker"])
    )
    assert stats["batched_requests"] == stats["admitted"]
    if not cache:
        assert stats["cache_hits"] == 0

    obs = gateway.obs
    rejections = "traffic_rejections_total"
    assert stats["offered"] == _summed(obs, "traffic_offered_total")
    assert stats["rejected_throttled"] == _summed(obs, rejections, reason="throttled")
    assert stats["rejected_shed"] == _summed(obs, rejections, reason="shed") + _summed(
        obs, rejections, reason="breaker"
    )
    assert stats["shed_breaker"] == _summed(obs, rejections, reason="breaker")
    assert stats["retries"] == _summed(obs, "traffic_retries_total")
    assert stats["errors"] == _summed(obs, "traffic_errors_total")
    assert stats["completed"] == _summed(obs, LATENCY_METRIC)
    assert stats["cache_hits"] == gateway.cache.hits
