"""Smoke tests for the hot-path benchmark harness.

These run every bench in ``perfkit`` at deliberately tiny sizes: the
point is that the harness works everywhere the test suite runs -- each
bench constructs its scenario, completes, and reports a sane rate --
*not* to assert absolute throughput (wall-clock rates are asserted only
by the CI regression gate, ``check_perf_regression.py``, against the
committed ``BENCH_perf.json`` baseline).

The determinism tests pin the acceptance criterion that none of the
hot-path machinery (fast dispatch loop, pooled timeouts, batched flit
delivery) changes simulated behaviour: the same seeded scenario must
produce bit-identical simulated times and statistics however it is run.
"""

import perfkit

from repro.obs import MetricsRegistry
from repro.sim import Kernel, Timeout


SMOKE_SIZES = {
    "kernel_dispatch": {"events": 2_000, "repeats": 1},
    "kernel_timeout_procs": {"procs": 10, "steps": 20, "repeats": 1},
    "eci_serialization": {"messages": 500, "repeats": 1},
    "eci_link_flits": {"flits": 500, "repeats": 1},
    "fleet_quorum_put": {"ops": 40, "repeats": 1},
    "traffic_kvs_mix": {"duration_ms": 0.2, "repeats": 1},
    "antientropy_sync": {"keys": 120, "divergent": 12, "repeats": 1},
}


def test_every_bench_has_smoke_sizes():
    assert set(SMOKE_SIZES) == set(perfkit.BENCHES)


def test_benches_run_and_report_sane_rates():
    for name, fn in perfkit.BENCHES.items():
        out = fn(**SMOKE_SIZES[name])
        assert out["ops"] > 0, name
        assert out["best_s"] > 0, name
        assert out["rate"] > 0, name
        assert out["unit"], name


def test_fleet_quorum_bench_sim_series_is_deterministic():
    # The wall-clock rate is noisy; the simulated latency series is not.
    a = perfkit.bench_fleet_quorum_put(ops=40, repeats=1)["sim"]
    b = perfkit.bench_fleet_quorum_put(ops=40, repeats=1)["sim"]
    assert a == b
    assert a["put_p50_ns"] > 0


def test_antientropy_bench_sim_counts_are_deterministic():
    # Same pinned seed, same knocked-out replicas, same repair counts.
    a = perfkit.bench_antientropy_sync(keys=120, divergent=12, repeats=1)["sim"]
    b = perfkit.bench_antientropy_sync(keys=120, divergent=12, repeats=1)["sim"]
    assert a == b
    assert a["dropped"] == 12
    assert a["repairs_applied_per_pass"] == 12


def test_sim_gate_names_the_drifted_bench_and_field():
    from check_perf_regression import check_sim

    baseline = {
        "benches": {
            "a": {"rate": 1.0, "sim": {"p50_ns": 1.0, "offered": 3}},
            "b": {"rate": 1.0},
        }
    }
    same = {"a": {"sim": {"p50_ns": 1.0, "offered": 3}}, "b": {}}
    assert check_sim(baseline, same) == []
    drifted = {"a": {"sim": {"p50_ns": 1.5, "offered": 3}}, "b": {}}
    assert check_sim(baseline, drifted) == [
        "a: sim.p50_ns drifted: committed 1.0, fresh 1.5"
    ]


def test_committed_sim_blocks_reproduce():
    """Every ``sim`` block in BENCH_perf.json is the exact outcome of its
    pinned-seed workload at the committed (full) size."""
    import json
    import os

    from check_perf_regression import check_sim

    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")
    with open(path) as fh:
        baseline = json.load(fh)
    fresh = {
        name: perfkit.BENCHES[name](repeats=1)
        for name, bench in baseline["benches"].items()
        if "sim" in bench
    }
    assert fresh, "the baseline names no deterministic sim block"
    assert check_sim(baseline, fresh) == []


def test_calibration_reports_sane_rate():
    out = perfkit.calibrate(spins=50_000, repeats=2)
    assert out["rate"] > 0


def _link_scenario(kernel, flits=200):
    """The bench's saturated-link scenario, returning its transport."""
    from repro.eci.link import EciLinkParams, EciLinkTransport
    from repro.eci.messages import Message, MessageType
    from repro.eci.protocol import ProtocolNode

    arrivals = []

    class Sink(ProtocolNode):
        def receive(self, message):
            arrivals.append((kernel.now, message.txid))

    transport = EciLinkTransport(kernel, params=EciLinkParams(credits_per_vc=4))
    Sink(kernel, 0, transport)
    Sink(kernel, 1, transport)
    sent = [0]

    def pump(_):
        for _ in range(8):
            if sent[0] >= flits:
                return
            transport.send(
                Message(
                    MessageType.RLDS,
                    src=0,
                    dst=1,
                    addr=(sent[0] * 128) & 0xFFFF80,
                    txid=sent[0],
                )
            )
            sent[0] += 1
        kernel.call_after(25.0, pump)

    kernel.call_after(0.0, pump)
    return transport, arrivals


def test_batched_flit_delivery_is_bit_identical_across_run_modes():
    """Fast loop, bounded loop, and instrumented loop must all produce
    the same arrival trace from the saturated-link scenario."""
    traces = []
    for mode in ("fast", "until", "observed"):
        kernel = Kernel(obs=MetricsRegistry() if mode == "observed" else None)
        transport, arrivals = _link_scenario(kernel)
        end = kernel.run(until=10_000_000.0 if mode == "until" else None)
        assert transport.stats["messages"] == 200
        assert transport.credits_conserved()
        traces.append((arrivals, transport.stats["queueing_ns"], end))
    assert traces[0][:2] == traces[1][:2] == traces[2][:2]
    # The fast and observed loops also agree on the final clock; the
    # 'until' run ends at its ceiling by definition.
    assert traces[0][2] == traces[2][2]


def test_flit_order_preserved_per_serializer():
    kernel = Kernel()
    _transport, arrivals = _link_scenario(kernel, flits=100)
    kernel.run()
    txids = [txid for _, txid in arrivals]
    assert txids == sorted(txids)


def test_pooled_timeouts_match_fresh_timeouts():
    """kernel.timeout() pooling must not change process schedules."""

    def proc(kernel, use_pool, log):
        for i in range(20):
            delay = 1.0 + (i % 3)
            yield kernel.timeout(delay) if use_pool else Timeout(delay)
            log.append(kernel.now)

    logs = []
    for use_pool in (False, True):
        kernel = Kernel()
        log = []
        kernel.spawn(proc(kernel, use_pool, log))
        kernel.run()
        logs.append(log)
    assert logs[0] == logs[1]
