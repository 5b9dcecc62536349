"""The ledger's four serving workloads, and one measured run of one of them.

Each workload is a batch of open-loop traffic (Lewis-Shedler arrivals
drawn from the kernel RNG) against a ``rack_traffic`` rack, built only
through the public ``repro`` API:

* ``flash_crowd`` -- the ``rack_traffic`` preset as shipped (the
  protected run of ``examples/traffic_slo.py``): admission, the gateway
  cache and the quorum read path do most of the work.
* ``write_heavy`` -- the same rack at the same base rate, steady Poisson,
  3:1 put:get over uniform keys: puts bypass the cache and fan out to
  rf=3, so the link, switch and per-ack server work dominate.
* ``accel_only`` -- recsys:gbdt 2:1 for 96 ms: no KVS traffic at all, the
  control on which a network or KVS change must predict no change.
* ``chaos`` -- the ``examples/chaos_serving.py`` scenario (kill, 4-vs-2
  split, hedging, retry budget, breakers, anti-entropy): the only
  workload that runs the failover paths.

Run as a script, this module is the ledger's child process: it builds one
workload, times ``engine.start()`` to the return of ``kernel.run()``
(optionally under ``cProfile``), checks the outputs, and prints one JSON
line.  ``run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO = Path(__file__).resolve().parents[2]
# The ledger drives the package from source, and reuses the chaos
# scenario's configuration from its example rather than copying it.
for _path in (REPO / "examples", REPO / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

WORKLOADS = ("flash_crowd", "write_heavy", "accel_only", "chaos")

#: The ``rack_traffic`` preset's seed.
DEFAULT_SEED = 990951


@dataclass
class Scenario:
    """A built, not yet started, workload."""

    rack: object
    engine: object
    obs: object
    healthy: bool
    #: Runs after the timed phase: further simulation plus checks.
    #: Returns (extra report fields, failed check messages).
    finish: Callable[[], tuple] = field(default=lambda: ({}, []))
    scheduler: Optional[object] = None


def build(name: str, seed: int, duration_ms: Optional[float] = None) -> Scenario:
    """Build workload ``name`` at ``seed``; ``duration_ms`` shortens the
    arrival window (the tests and the warm-up use ~1 ms)."""
    from repro.config import preset
    from repro.fleet import Rack
    from repro.obs import MetricsRegistry
    from repro.traffic import RequestClassConfig, TrafficEngine

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    if name == "chaos":
        return _build_chaos(seed, duration_ms)
    cfg = preset("rack_traffic")
    fleet = replace(cfg.fleet, seed=seed)
    traffic = cfg.traffic
    slo = {c.kind: c.slo_ns for c in traffic.classes}
    if name == "write_heavy":
        traffic = replace(
            traffic,
            arrival="poisson",
            key_skew=1.0,
            classes=(
                RequestClassConfig("kvs_put", weight=3.0, slo_ns=slo["kvs_put"]),
                RequestClassConfig("kvs_get", weight=1.0, slo_ns=slo["kvs_get"]),
            ),
        )
    elif name == "accel_only":
        traffic = replace(
            traffic,
            arrival="poisson",
            duration_ns=96_000_000.0,
            classes=(
                RequestClassConfig("recsys", weight=2.0, slo_ns=slo["recsys"]),
                RequestClassConfig("gbdt", weight=1.0, slo_ns=slo["gbdt"]),
            ),
        )
    if duration_ms is not None:
        traffic = replace(traffic, duration_ns=duration_ms * 1e6)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    engine = TrafficEngine(rack, traffic, obs=obs)
    return Scenario(rack, engine, obs, healthy=True)


def _build_chaos(seed: int, duration_ms: Optional[float]) -> Scenario:
    from chaos_serving import SPLIT_AT_NS, SYNC_INTERVAL_NS, _chaos_config
    from repro.faults import FaultInjector
    from repro.fleet import (
        AntiEntropyScheduler,
        HistoryRecorder,
        Rack,
        replica_divergence,
    )
    from repro.fleet.audit import check_history
    from repro.obs import MetricsRegistry
    from repro.traffic import TrafficEngine

    fleet, traffic, faults = _chaos_config(seed)
    if duration_ms is not None:
        traffic = replace(traffic, duration_ns=duration_ms * 1e6)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    injector = FaultInjector(faults, obs=obs)
    injector.arm_fleet(rack)
    engine = TrafficEngine(rack, traffic, obs=obs)
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    engine.attach_history(recorder)
    scheduler = AntiEntropyScheduler(rack, obs=obs)
    scheduler.start(until_ns=SPLIT_AT_NS)

    def finish():
        failed = []
        rack.maybe_heal()
        audit = check_history(recorder).summary()
        if not audit["linearizable"]:
            failed.append(f"history not linearizable on keys {audit['violations'][:4]}")
        divergence_at_drain = replica_divergence(rack)
        # Convergence window with reads disabled: anti-entropy alone must
        # close the divergence the split left behind.
        scheduler.start(until_ns=rack.kernel.now + 4 * SYNC_INTERVAL_NS)
        rack.kernel.run()
        divergence_final = replica_divergence(rack)
        if divergence_final:
            failed.append(f"anti-entropy left {divergence_final} divergent entries")
        acked = sorted({k for c in engine.clients for k in c.acked})
        missing = []

        def readback():
            for key in acked:
                value = yield from engine.clients[0].get(key)
                if value is None:
                    missing.append(key)

        rack.kernel.run_process(readback())
        if missing:
            failed.append(f"{len(missing)} acked keys unreadable: {missing[:4]}")
        extra = {
            "chaos": {
                "fault_trace": [list(entry) for entry in injector.trace],
                "audit": audit,
                "divergence_at_drain": divergence_at_drain,
                "divergence_final": divergence_final,
                "anti_entropy": dict(scheduler.stats),
                "acked_keys": len(acked),
            }
        }
        return extra, failed

    return Scenario(rack, engine, obs, healthy=False, finish=finish, scheduler=scheduler)


# -- exact simulated metrics ---------------------------------------------------


def interpolated_percentile(merged, base: float, q: float) -> float:
    """Percentile ``q`` of a bucket-merged latency series, interpolated
    linearly inside the log bucket where the CDF crosses ``q`` (and
    clamped to the observed min/max).  Deterministic like the bucket
    upper bound the SLO report uses, but it moves smoothly with the
    distribution instead of in 25 % steps."""
    if merged.count == 0:
        return 0.0
    threshold = q / 100.0 * merged.count
    cumulative = 0
    for bound, n in sorted(merged.buckets.items()):
        if cumulative + n >= threshold:
            lower = max(bound / base if bound > 0 else 0.0, merged.min)
            upper = min(bound, merged.max)
            return lower + (upper - lower) * (threshold - cumulative) / n
        cumulative += n
    return merged.max


def _histogram_base(obs, name: str) -> float:
    from repro.obs.metrics import Histogram

    for metric in obs.metrics():
        if isinstance(metric, Histogram) and metric.name == name:
            return metric.base
    return 2.0


def exact_metrics(scenario: Scenario, gateway: dict) -> dict:
    """The deterministic end-to-end metrics: latency over every served
    request, and goodput within each class's SLO."""
    from repro.fleet.rollup import MergedSeries, merge_histograms
    from repro.traffic.gateway import LATENCY_METRIC

    obs = scenario.obs
    base = _histogram_base(obs, LATENCY_METRIC)
    merged = merge_histograms(obs, LATENCY_METRIC).get("rack", MergedSeries(LATENCY_METRIC))
    by_class = merge_histograms(obs, LATENCY_METRIC, group_by="class")
    within = 0
    for cls in scenario.engine.classes:
        series = by_class.get(cls.kind)
        if series is not None:
            within += sum(n for b, n in series.buckets.items() if b <= cls.slo_ns)
    offered = gateway["offered"]
    out = {"latency_samples": merged.count}
    for label, q in (("sim_p50_us", 50.0), ("sim_p99_us", 99.0), ("sim_p999_us", 99.9)):
        out[label] = interpolated_percentile(merged, base, q) / 1e3
    out["slo_goodput_frac"] = within / offered if offered else 0.0
    return out


# -- per-layer counters from public state -------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(scenario: Scenario, gateway: dict) -> dict:
    """Deterministic per-layer work counters, read from each component's
    public ``stats`` after the timed phase."""
    from repro.fleet.rollup import MergedSeries, merge_histograms

    rack, engine = scenario.rack, scenario.engine
    offered = gateway["offered"]
    links = [m.link for m in rack.machines.values()] + [c.link for c in engine.clients]
    frames = sum(link.stats["frames"] for link in links)
    wire_bytes = sum(link.stats["bytes"] for link in links)
    switch = rack.switch.stats
    servers = [m.server.stats for m in rack.machines.values()]
    stores = [m.store.stats for m in rack.machines.values()]
    clients = [c.stats for c in engine.clients]

    def client_sum(key):
        return sum(s[key] for s in clients)

    successes = client_sum("puts_acked") + client_sum("gets") + client_sum("deletes")
    failed_attempts = (
        client_sum("timeouts") + client_sum("rejections") + client_sum("quorum_rejects")
    )
    ops = successes + failed_attempts - client_sum("retries")
    op_metric = "fleet_request_latency_ns"
    op_latency = merge_histograms(scenario.obs, op_metric).get("rack", MergedSeries(op_metric))
    op_base = _histogram_base(scenario.obs, op_metric)
    out = {
        "sim.events": rack.kernel.snapshot_state()["seq"],
        "net.frames_per_req": _ratio(frames, offered),
        "net.bytes_per_req": _ratio(wire_bytes, offered),
        "switch.forwarded_per_req": _ratio(switch["forwarded"], offered),
        "switch.partition_drops": switch["dropped_partitioned"],
        "obs.instruments": sum(1 for _ in scenario.obs.metrics()),
        "gateway.admit_frac": _ratio(gateway["admitted"], offered),
        "gateway.cache_hit_frac": _ratio(gateway["cache_hits"], offered),
        "gateway.mean_batch": _ratio(gateway["batched_requests"], gateway["batches"]),
        "gateway.max_queue_depth": gateway["max_queue_depth"],
        "gateway.shed_frac": _ratio(gateway["rejected_shed"], offered),
        "gateway.retries_per_req": _ratio(gateway["retries"], offered),
        "gateway.hedges_per_req": _ratio(gateway["hedges"], offered),
        "gateway.hedge_win_frac": _ratio(gateway["hedge_wins"], gateway["hedges"]),
        "gateway.error_frac": _ratio(gateway["errors"], offered),
        "client.attempts_per_op": _ratio(successes + failed_attempts, ops),
        "client.timeouts_per_op": _ratio(client_sum("timeouts"), ops),
        "client.rejections_per_op": _ratio(
            client_sum("rejections") + client_sum("quorum_rejects"), ops
        ),
        "client.late_per_op": _ratio(client_sum("late_responses"), ops),
        "client.sim_op_p50_us": interpolated_percentile(op_latency, op_base, 50.0) / 1e3,
        "client.sim_op_p99_us": interpolated_percentile(op_latency, op_base, 99.0) / 1e3,
        "server.served_per_req": _ratio(sum(s["served"] for s in servers), offered),
        "server.replicated_per_put": _ratio(
            sum(s["replicated"] for s in servers), client_sum("puts_acked")
        ),
        "server.stale_epoch_rejects": sum(s["stale_epoch_rejects"] for s in servers),
        "store.ops_per_req": _ratio(
            sum(s["gets"] + s["puts"] + s["deletes"] for s in stores), offered
        ),
    }
    out["sim.events_per_req"] = _ratio(out["sim.events"], offered)
    return out


def check_gateway(scenario: Scenario, gateway: dict) -> List[str]:
    """The conservation law, plus zero errors on the healthy workloads."""
    failed = []
    accounted = (
        gateway["completed"]
        + gateway["rejected_throttled"]
        + gateway["rejected_shed"]
        + gateway["errors"]
    )
    if gateway["offered"] != accounted:
        failed.append(f"conservation broken: offered {gateway['offered']} != {accounted}")
    if scenario.healthy and gateway["errors"]:
        failed.append(f"healthy workload served {gateway['errors']} errors")
    return failed


def measure(
    name: str,
    seed: int,
    duration_ms: Optional[float] = None,
    profile: bool = False,
) -> Dict[str, object]:
    """Build, time, check and digest one workload run in this process."""
    scenario = build(name, seed, duration_ms)
    engine, kernel = scenario.engine, scenario.rack.kernel
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    setup_done = time.perf_counter()
    engine.start()
    kernel.run()
    host_s = time.perf_counter() - setup_done
    if profiler is not None:
        profiler.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim_s = kernel.now / 1e9

    report = engine.report()
    gateway = report["gateway"]
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "setup_done": setup_done,
        "host_s": host_s,
        "sim_s": sim_s,
        "offered": gateway["offered"],
        "peak_rss_mb": peak_rss_mb,
        "exact": exact_metrics(scenario, gateway),
        "counters": layer_counters(scenario, gateway),
    }
    failed = check_gateway(scenario, gateway)
    extra, finish_failed = scenario.finish()
    failed += finish_failed
    # Anti-entropy counts cover the convergence window too: that is
    # where the chaos scenario's repairs happen.
    stats = scenario.scheduler.stats if scenario.scheduler is not None else {}
    result["counters"].update(
        {
            "antientropy.passes": stats.get("passes", 0),
            "antientropy.hash_comparisons": stats.get("hash_comparisons", 0),
            "antientropy.repairs": stats.get("repairs_applied", 0),
        }
    )
    if profiler is not None:
        import pstats

        from layers import OTHER_LIMIT, attribute

        layers = attribute(pstats.Stats(profiler), REPO / "src" / "repro", gateway["offered"])
        result["layers"] = layers
        if layers["other.self_share"] > OTHER_LIMIT:
            failed.append(
                f"layer map: {layers['other.self_share']:.1%} of traced self-time "
                f"is unattributed (limit {OTHER_LIMIT:.0%}); "
                "add the new module to benchmarks/ledger/layers.py"
            )

    from repro.obs.export import snapshot_jsonl

    report.update(extra)
    report["seed"] = seed
    report["snapshot"] = snapshot_jsonl(scenario.obs)
    canonical = json.dumps(report, sort_keys=True).encode()
    result["sim_digest"] = hashlib.sha256(canonical).hexdigest()
    result["failed_checks"] = failed
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--duration-ms", type=float, default=None)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.duration_ms, args.profile)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
