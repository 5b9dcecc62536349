#!/usr/bin/env python3
"""Chaos-hardened serving: kills and partitions mid-flash-crowd.

Drives the ``rack_traffic`` preset -- the partition-tolerant
``rack_quorum`` fleet under the ``million_users`` scenario (10^6
open-loop users, a 10x flash crowd mid-run) -- while the fleet
underneath is actively attacked:

* at t=12 ms (inside the crowd) a ``fleet.machine`` kill takes out a
  board; the rack fails over;
* at t=13 ms a ``fleet.partition`` splits the rack 4-vs-2 for 5 ms;
  the majority side keeps serving what it can reach, the minority
  side of the keyspace goes unavailable rather than stale.

The serving path carries the chaos kit: a Finagle-style retry budget
and per-shard circuit breakers.  Hinted handoff is *off* --
convergence after the heal is the job of the background Merkle
anti-entropy pass, not of reads.

The run proves, at a fixed seed:

1. conservation -- ``offered == completed + rejected_throttled +
   rejected_shed + errors`` exactly, faults included;
2. SLOs -- the accelerator classes (recsys, gbdt), which never touch
   the KVS, hold their flash-phase p99 objectives through the chaos;
3. audit -- the interleaved multi-client KVS history (all gateway
   client ports into one recorder) is linearizable;
4. anti-entropy -- with reads disabled, background passes alone drive
   the post-heal replica divergence to zero;
5. durability -- every acked write is still readable afterwards;
6. determinism -- the whole scenario reproduces bit-for-bit.

The text output also reports the simulator's own speed: host seconds
per simulated second of the serving run.

Run:  python examples/chaos_serving.py [--seed N] [--json]
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import FaultSpec, FaultsConfig, preset
from repro.faults import FaultInjector
from repro.fleet import (
    AntiEntropyConfig,
    AntiEntropyScheduler,
    HistoryRecorder,
    Rack,
    assert_linearizable,
    replica_divergence,
)
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.traffic import TrafficEngine

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")

KILL_AT_NS = 12_000_000.0
SPLIT_AT_NS = 13_000_000.0
SPLIT_DURATION_NS = 5_000_000.0
VICTIM = "enzian3"

#: Background anti-entropy cadence (also the post-run convergence tick).
SYNC_INTERVAL_NS = 2_000_000.0


def _chaos_config(seed: int):
    """The preset, hardened: no hints, anti-entropy on, chaos knobs on."""
    cfg = preset("rack_traffic")
    fleet = replace(
        cfg.fleet,
        seed=seed,
        hinted_handoff=False,
        # Fail fast at the KVS client (one attempt, ~60 us worst case)
        # and let the *gateway's* budgeted retries and breakers decide
        # what to do -- a client that retries for 300 us per call holds
        # a backend worker hostage and head-of-line blocks the
        # accelerator classes behind it.
        max_retries=0,
        anti_entropy=AntiEntropyConfig(
            enabled=True, interval_ns=SYNC_INTERVAL_NS
        ),
    )
    traffic = replace(
        cfg.traffic,
        gateway=replace(
            cfg.traffic.gateway,
            # Provision workers for fault stalls: a request stuck on a
            # dying shard occupies its worker for ~120 us before the
            # breaker takes the shard out, and the accelerator classes
            # queue behind it.  3x the fair-weather pool keeps them
            # inside their p99 through the worst transient.
            workers=24,
            retry_budget=0.1,
            retry_limit=1,
            breaker_enabled=True,
            breaker_failures=3,
            breaker_reset_ns=4_000_000.0,
            breaker_probes=1,
        ),
    )
    faults = FaultsConfig(
        events=(
            FaultSpec("fleet.machine", "kill", at=KILL_AT_NS, arg=VICTIM),
            FaultSpec(
                "fleet.partition",
                "split",
                at=SPLIT_AT_NS,
                duration=SPLIT_DURATION_NS,
                arg=",".join(MAJ) + "|" + ",".join(MIN),
            ),
        )
    )
    return fleet, traffic, faults


def run_scenario(seed: int):
    """One full chaos-serving scenario; returns the canonical result and
    the host seconds the serving run took."""
    fleet, traffic, faults = _chaos_config(seed)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    injector = FaultInjector(faults, obs=obs)
    injector.arm_fleet(rack)
    engine = TrafficEngine(rack, traffic, obs=obs)
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    engine.attach_history(recorder)
    scheduler = AntiEntropyScheduler(rack, obs=obs)
    # Background passes run up to the split (healthy pairs compare in
    # one root hash each -- the pass is near-free); the post-chaos
    # convergence window below re-arms them, so the repair work is
    # attributable to anti-entropy alone rather than to read repair.
    scheduler.start(until_ns=SPLIT_AT_NS)

    started = time.perf_counter()
    report = engine.run()
    host_s = time.perf_counter() - started
    rack.maybe_heal()

    # 1. Conservation: every offered request accounted for exactly once,
    #    chaos included.
    gateway = report["gateway"]
    assert gateway["offered"] == (
        gateway["completed"]
        + gateway["rejected_throttled"]
        + gateway["rejected_shed"]
        + gateway["errors"]
    ), f"request accounting leaked: {gateway}"
    # The chaos actually bit the serving path, and the path fought back.
    assert rack.active_partition is None, "partition never healed"
    assert VICTIM not in rack.ring.machines, "kill never landed"
    assert gateway["errors"] + gateway["retries"] > 0, (
        "the faults never reached the serving path"
    )

    # 2. The classes that never touch the KVS hold their flash-phase
    #    p99 SLOs straight through the kill and the split.
    flash = report["slo"]["phases"]["flash"]
    for kind in ("recsys", "gbdt"):
        assert flash[kind]["met"], (
            f"unaffected class {kind} lost its flash p99: {flash[kind]}"
        )

    # 3. The interleaved multi-client history is linearizable.
    assert recorder.max_concurrency() > 1, "history was accidentally sequential"
    audit = assert_linearizable(recorder).summary()

    # 4. Convergence window, reads disabled: background anti-entropy
    #    passes alone drive the post-heal divergence to zero.
    divergence_at_drain = replica_divergence(rack)
    assert divergence_at_drain > 0, (
        "the heal left nothing to repair -- the scenario no longer diverges"
    )
    scheduler.start(until_ns=rack.kernel.now + 4 * SYNC_INTERVAL_NS)
    rack.kernel.run()
    divergence_final = replica_divergence(rack)
    assert divergence_final == 0, (
        f"anti-entropy left {divergence_final} divergent replica entries"
    )
    assert scheduler.stats["repairs_applied"] > 0, (
        "convergence came for free -- the scenario no longer diverges"
    )

    # 5. No acked write lost: every key any client got an ack for is
    #    still readable at quorum after the chaos.
    acked_keys = sorted({k for c in engine.clients for k in c.acked})
    missing = []

    def readback():
        client = engine.clients[0]
        for key in acked_keys:
            value = yield from client.get(key)
            if value is None:
                missing.append(key)

    rack.kernel.run_process(readback())
    assert not missing, f"{len(missing)} acked keys unreadable: {missing[:4]}"

    report["seed"] = seed
    report["chaos"] = {
        "fault_trace": [list(entry) for entry in injector.trace],
        "audit": audit,
        "clients": recorder.clients,
        "max_concurrency": recorder.max_concurrency(),
        "divergence_at_drain": divergence_at_drain,
        "divergence_final": divergence_final,
        "anti_entropy": dict(scheduler.stats),
        "acked_keys": len(acked_keys),
    }
    report["snapshot"] = snapshot_jsonl(obs)
    return report, host_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=preset("rack_traffic").fleet.seed
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON result (the determinism fixture)",
    )
    args = parser.parse_args()

    result, host_s = run_scenario(args.seed)

    if args.json:
        print(json.dumps(result, sort_keys=True))
        return

    gateway = result["gateway"]
    chaos = result["chaos"]
    print(
        f"chaos serving: kill {VICTIM} at t={KILL_AT_NS / 1e6:g} ms, "
        f"4-vs-2 split t={SPLIT_AT_NS / 1e6:g}.."
        f"{(SPLIT_AT_NS + SPLIT_DURATION_NS) / 1e6:g} ms, "
        f"10x flash crowd, seed={result['seed']}"
    )
    print(
        f"gateway: offered={gateway['offered']} completed={gateway['completed']} "
        f"throttled={gateway['rejected_throttled']} shed={gateway['rejected_shed']} "
        f"(breaker={gateway['shed_breaker']}) errors={gateway['errors']} "
        f"retries={gateway['retries']}"
    )
    for phase, classes in result["slo"]["phases"].items():
        for kind, s in classes.items():
            print(
                f"  {phase:>6}/{kind:8s} n={s['count']:<6d} "
                f"p99={s['p99_ns']:>9.0f} slo={s['slo_ns']:>7.0f} "
                f"{'met' if s['met'] else 'VIOLATED'}"
            )
    sim_s = result["t_final_ns"] / 1e9
    print(
        f"  simulator: {host_s / sim_s:.1f} host s per simulated s "
        f"({sim_s * 1e3:.2f} ms simulated in {host_s:.2f} s)"
    )
    print(
        f"audit: {chaos['audit']['ops']} ops from {len(chaos['clients'])} "
        f"clients, max_concurrency={chaos['max_concurrency']}, "
        f"linearizable={chaos['audit']['linearizable']}"
    )
    print(
        f"anti-entropy: divergence {chaos['divergence_at_drain']} at drain "
        f"-> {chaos['divergence_final']} after the convergence window "
        f"({chaos['anti_entropy']['repairs_applied']} repairs over "
        f"{chaos['anti_entropy']['passes']} passes); "
        f"{chaos['acked_keys']} acked keys all readable"
    )

    # 6. Determinism: the whole chaos scenario reproduces bit-for-bit.
    again, _ = run_scenario(args.seed)
    assert json.dumps(again, sort_keys=True) == json.dumps(
        result, sort_keys=True
    ), "chaos scenario was not deterministic"
    print(
        "\nOK: conservation exact under kill+split, unaffected classes held "
        "their flash p99, the multi-client history is linearizable, "
        "anti-entropy closed the divergence with reads disabled, no acked "
        "write was lost, and the run reproduced bit-for-bit."
    )


if __name__ == "__main__":
    main()
