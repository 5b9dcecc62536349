"""Hot-path performance benchmarks for the simulation twin.

Each bench returns a dict with a ``rate`` (operations per second of
wall-clock time) plus enough metadata to make the number reproducible.
The same functions back the pytest smoke tests
(``benchmarks/test_perf_kernel.py``), the ``BENCH_perf.json`` writer
(``benchmarks/run_perf.py``) and the CI regression gate
(``benchmarks/check_perf_regression.py``).

Methodology: every bench runs ``repeats`` times and reports the *best*
wall-clock rate (minimum noise estimator, like ``timeit``).  Rates are
wall-clock performance of the simulator itself -- simulated time is
irrelevant here except as a work counter.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sim import Kernel, Timeout  # noqa: E402

#: One pinned seed for every bench kernel: rates are wall-clock, but
#: the simulated work must be identical run-to-run (and is stamped
#: into BENCH_perf.json so a committed baseline names its workload).
BENCH_SEED = 0


def calibrate(spins: int = 2_000_000, repeats: int = 5) -> dict:
    """A fixed pure-Python spin loop: the host's scalar interpreter speed.

    The regression gate scales committed baseline rates by the ratio of
    fresh to committed calibration, so a slower CI runner is compared
    against what the baseline machine *would have scored there* rather
    than against its absolute numbers.
    """

    def work():
        acc = 0
        for i in range(spins):
            acc += i & 7
        return acc

    out = _best_rate(work, spins, repeats)
    out["unit"] = "spins/s"
    return out


def _best_rate(work, ops: int, repeats: int) -> dict:
    """Run ``work()`` ``repeats`` times; rate = ops / best wall time."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {"ops": ops, "best_s": best, "rate": ops / best}


def bench_kernel_dispatch(events: int = 200_000, repeats: int = 3) -> dict:
    """Raw event-loop dispatch: a self-rescheduling callback chain.

    Measures the kernel's per-event overhead (queue push/pop, clock
    advance, dispatch) with a trivial callback body, i.e. the floor any
    simulation pays per event.
    """

    def work():
        kernel = Kernel(seed=BENCH_SEED)
        remaining = [events]

        def tick(_):
            if remaining[0] > 0:
                remaining[0] -= 1
                kernel.call_after(1.0, tick)

        kernel.call_after(1.0, tick)
        kernel.run()

    out = _best_rate(work, events, repeats)
    out["unit"] = "events/s"
    return out


def bench_kernel_timeout_procs(
    procs: int = 200, steps: int = 500, repeats: int = 3
) -> dict:
    """Process scheduling: many coroutines yielding Timeouts.

    Exercises the full wakeup path -- Timeout subscribe, queue, process
    resume -- which is what protocol agents actually pay per step.
    """
    events = procs * steps

    def work():
        kernel = Kernel(seed=BENCH_SEED)

        def proc(period):
            for _ in range(steps):
                yield Timeout(period)

        for i in range(procs):
            kernel.spawn(proc(1.0 + (i % 7)))
        kernel.run()

    out = _best_rate(work, events, repeats)
    out["unit"] = "events/s"
    return out


def bench_eci_serialization(messages: int = 20_000, repeats: int = 3) -> dict:
    """Wire pack/unpack round-trips over every ECI message type."""
    from repro.eci import serialization
    from repro.eci.messages import (
        CACHE_LINE_BYTES,
        DATA_BEARING_TYPES,
        MessageType,
        Message,
    )

    line = bytes(i % 256 for i in range(CACHE_LINE_BYTES))
    pool = []
    for i, mtype in enumerate(MessageType):
        if mtype in DATA_BEARING_TYPES:
            payload = line if mtype not in (
                MessageType.IOBST,
                MessageType.IOBRSP,
            ) else b"\x55" * 8
        else:
            payload = None
        pool.append(
            Message(
                mtype,
                src=i % 4,
                dst=(i + 1) % 4,
                addr=(i * CACHE_LINE_BYTES) & 0xFFFF80,
                txid=i,
                payload=payload,
                requester=2 if mtype.name.startswith("F") else None,
            )
        )

    def work():
        for i in range(messages):
            message = pool[i % len(pool)]
            wire = serialization.encode(message)
            serialization.decode(wire)

    out = _best_rate(work, messages, repeats)
    out["unit"] = "msgs/s"
    return out


def bench_eci_link_flits(flits: int = 20_000, repeats: int = 3) -> dict:
    """A saturated, credit-limited ECI link: wall-clock flits/sec.

    Back-to-back header-only flits from one source keep the serializer
    busy; credit flow control is on, so the credit return path runs too.
    """
    from repro.eci.link import EciLinkParams, EciLinkTransport
    from repro.eci.messages import Message, MessageType
    from repro.eci.protocol import ProtocolNode

    class Sink(ProtocolNode):
        def receive(self, message):
            pass

    def work():
        kernel = Kernel(seed=BENCH_SEED)
        transport = EciLinkTransport(
            kernel, params=EciLinkParams(credits_per_vc=8)
        )
        Sink(kernel, 0, transport)
        Sink(kernel, 1, transport)
        sent = [0]

        def pump(_):
            for _ in range(16):
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
            kernel.call_after(50.0, pump)

        kernel.call_after(0.0, pump)
        kernel.run()
        assert transport.stats["messages"] >= flits

    out = _best_rate(work, flits, repeats)
    out["unit"] = "flits/s"
    return out


def bench_fleet_quorum_put(ops: int = 600, repeats: int = 3) -> dict:
    """Quorum-path KVS throughput on the ``rack_quorum`` fleet.

    Half puts, half gets through the primary-coordinated quorum write
    path (rf=3, w=2, r=2): version stamping, replicate fan-out, sticky
    quorum fan-in, and the deferred hint-settle callback all run per
    op.  Besides the wall-clock rate, reports the *simulated* put
    latency series (p50/p99 in ns) -- deterministic under the pinned
    seed, so a drift there means the protocol itself changed.
    """
    from repro.config import preset
    from repro.fleet import Rack

    fleet = preset("rack_quorum").fleet
    sim: dict = {}

    def work():
        rack = Rack(fleet)
        client = rack.client()
        latencies = []

        def workload():
            for i in range(ops // 2):
                t0 = rack.kernel.now
                yield from client.put(f"qb-{i % 32:03d}".encode(), b"x" * 64)
                latencies.append(rack.kernel.now - t0)
            for i in range(ops - ops // 2):
                yield from client.get(f"qb-{i % 32:03d}".encode())

        rack.kernel.run_process(workload())
        latencies.sort()
        sim["put_p50_ns"] = latencies[len(latencies) // 2]
        sim["put_p99_ns"] = latencies[min(len(latencies) - 1, (len(latencies) * 99) // 100)]
        sim["t_final_ns"] = rack.kernel.now

    out = _best_rate(work, ops, repeats)
    out["unit"] = "kvs-ops/s"
    out["sim"] = sim
    return out


def bench_traffic_kvs_mix(duration_ms: float = 3.0, repeats: int = 3) -> dict:
    """Serving-path throughput: the traffic engine end to end.

    A scaled-down open-loop Poisson scenario (the default mix: quorum
    puts/gets plus recsys/GBDT service classes) through the full
    gateway -- cache lookups, token-bucket admission, batching, and
    the backend KVS clients -- against the ``rack_quorum`` fleet.
    The rate counts *offered* requests per wall-clock second, i.e. the
    simulator's cost per production request.  ``sim`` pins the
    simulated outcome (completions, flash-free p50/p99), deterministic
    under the pinned seed: a drift there means the serving model
    itself changed, not just its speed.
    """
    from dataclasses import replace

    from repro.config import preset
    from repro.fleet import Rack
    from repro.obs import MetricsRegistry
    from repro.traffic import TrafficConfig, TrafficEngine

    fleet = replace(preset("rack_quorum").fleet, seed=BENCH_SEED)
    traffic = TrafficConfig(
        users=100_000,
        per_user_rps=6.0,
        duration_ns=duration_ms * 1e6,
        arrival="poisson",
    )
    sim: dict = {}
    counted = {"ops": 0}

    def work():
        obs = MetricsRegistry()
        rack = Rack(fleet, obs=obs)
        engine = TrafficEngine(rack, traffic, obs=obs)
        report = engine.run()
        counted["ops"] = report["gateway"]["offered"]
        rack_view = report["slo"]["classes"]["kvs_get"]
        sim["offered"] = report["gateway"]["offered"]
        sim["completed"] = report["gateway"]["completed"]
        sim["cache_hits"] = report["gateway"]["cache_hits"]
        sim["get_p50_ns"] = rack_view["p50_ns"]
        sim["get_p99_ns"] = rack_view["p99_ns"]
        sim["t_final_ns"] = rack.kernel.now

    out = _best_rate(work, 1, repeats)
    out["ops"] = counted["ops"]
    out["rate"] = counted["ops"] / out["best_s"]
    out["unit"] = "requests/s"
    out["sim"] = sim
    return out


def bench_antientropy_sync(
    keys: int = 2_000, divergent: int = 200, repeats: int = 3
) -> dict:
    """Merkle anti-entropy pass: one full sweep of a populated rack.

    Loads ``keys`` quorum-written entries onto the ``rack_quorum``
    fleet once, then per repetition knocks ``divergent`` of them out
    of a non-primary replica each and times a single ``run_pass()``:
    Merkle tree build over every shared replica range, hash-guided
    leaf diff, and the repairs themselves.  The rate counts keyspace
    entries per wall-clock second of sweep.  ``sim`` pins the per-pass
    comparison/repair counts -- deterministic under the pinned seed, so
    a drift there means the sync protocol itself changed.
    """
    from dataclasses import replace

    from repro.config import preset
    from repro.fleet import (
        AntiEntropyConfig,
        AntiEntropyScheduler,
        Rack,
        convergence,
        replica_divergence,
        require,
    )

    fleet = replace(
        preset("rack_quorum").fleet, seed=BENCH_SEED, hinted_handoff=False
    )
    rack = Rack(fleet)
    client = rack.client()

    def seed_writes():
        for i in range(keys):
            yield from client.put(b"ae-%05d" % i, b"x" * 64)

    rack.kernel.run_process(seed_writes())
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(interval_ns=1e6))

    def knock_out():
        # Drop the same ``divergent`` keys from one non-primary replica
        # each; the pass repairs them back to the identical entry, so
        # every repetition does the same work.
        dropped = 0
        for i in range(keys):
            if dropped >= divergent:
                break
            key = b"ae-%05d" % i
            for replica in rack.ring.place(key)[1:]:
                machine = rack.machines[replica]
                if machine.store.get(key) is not None:
                    machine.store.delete(key)
                    machine.server.versions.pop(key, None)
                    dropped += 1
                    break
        return dropped

    sim: dict = {}

    def work():
        sim["dropped"] = knock_out()
        before = dict(scheduler.stats)
        scheduler.run_pass()
        for stat in ("repairs_applied", "hash_comparisons", "pairs_compared"):
            sim[f"{stat}_per_pass"] = scheduler.stats[stat] - before.get(stat, 0)

    out = _best_rate(work, keys, repeats)
    require(convergence(replica_divergence(rack)))
    out["unit"] = "keys/s"
    out["sim"] = sim
    return out


BENCHES = {
    "kernel_dispatch": bench_kernel_dispatch,
    "kernel_timeout_procs": bench_kernel_timeout_procs,
    "eci_serialization": bench_eci_serialization,
    "eci_link_flits": bench_eci_link_flits,
    "fleet_quorum_put": bench_fleet_quorum_put,
    "traffic_kvs_mix": bench_traffic_kvs_mix,
    "antientropy_sync": bench_antientropy_sync,
}


def run_all(**overrides) -> dict:
    results = {}
    for name, fn in BENCHES.items():
        results[name] = fn(**overrides.get(name, {}))
    return results
