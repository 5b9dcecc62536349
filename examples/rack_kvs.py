#!/usr/bin/env python3
"""Rack-scale KVS: N simulated Enzians behind one switch, with failover.

Builds a rack from the ``rack8`` preset's fleet section (8 boards,
replication factor 2, consistent-hash placement; the derived quorums
are w=2, r=1), runs a replicated put/get workload from a client port,
and -- mid-run -- kills one
machine through a ``fleet.machine`` fault-plan entry.  The rack
*degrades* instead of aborting: the victim's health machine lands in
FAILED, its shards promote to their first replicas, every acknowledged
write survives, and the run ends with rack-level p50/p99 latency
rolled up from the per-machine histograms.

The same seed always reproduces the same run, bit for bit; ``--json``
prints the canonical rollup the CI determinism smoke diffs.

Run:  python examples/rack_kvs.py [--machines N] [--seed N] [--json]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import FaultSpec, FaultsConfig, preset
from repro.faults import FaultInjector
from repro.fleet import FleetRollup, Rack, durability, read_acked, require
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

# While put 0 is in service on its primary: the kill black-holes the
# response, the client times out, and the retry lands on the promoted
# replica -- the failover path, exercised on every run.
KILL_AT_NS = 1_500.0
N_KEYS = 48


def run_rack(machines: int, seed: int) -> dict:
    """One full scenario; returns the canonical (deterministic) result."""
    fleet = preset("rack8").fleet
    if machines != fleet.machines or seed != fleet.seed:
        import dataclasses

        fleet = dataclasses.replace(fleet, machines=machines, seed=seed)

    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    client = rack.client()
    keys = [f"user:{i:04d}".encode() for i in range(N_KEYS)]

    # The fault plan: kill the machine that primaries the first key,
    # while the workload is in flight.
    victim = rack.ring.primary(keys[0])
    injector = FaultInjector(
        FaultsConfig(
            events=(FaultSpec("fleet.machine", "kill", at=KILL_AT_NS, arg=victim),)
        ),
        obs=obs,
    )
    injector.arm_fleet(rack)

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, f"profile-{i}".encode())
        return (yield from read_acked(client, [client]))

    reads = rack.kernel.run_process(workload(), name="rack-workload")

    # Degradation invariants (the run *must* survive the kill):
    require(durability([client], reads))
    assert rack.health_states()[victim] == "failed"
    assert victim not in rack.ring.machines, "ring was not rebalanced"
    assert rack.failovers, "no promotion recorded"
    assert client.stats["timeouts"] >= 1, "kill never hit an in-flight request"

    rollup = FleetRollup(obs)
    return {
        "machines": fleet.machines,
        "seed": fleet.seed,
        "victim": victim,
        "t_final_ns": rack.kernel.now,
        "client": dict(client.stats),
        "acked_writes": len(client.acked),
        "health": rack.health_states(),
        "failovers": [
            {"t": t, "machine": m, "detail": d} for t, m, d in rack.failovers
        ],
        "trace": [list(entry) for entry in injector.trace],
        "rollup": rollup.to_dict(),
        "snapshot": snapshot_jsonl(obs),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machines", type=int, default=8, help="boards in the rack")
    parser.add_argument("--seed", type=int, default=preset("rack8").fleet.seed)
    parser.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON result (the determinism fixture)",
    )
    args = parser.parse_args()

    result = run_rack(args.machines, args.seed)

    if args.json:
        print(json.dumps(result, sort_keys=True))
        return

    print(f"rack: {result['machines']} machines, seed={result['seed']}")
    print(f"killed {result['victim']} at t={KILL_AT_NS:g} ns (fault plan)")
    print(f"health: {result['health']}")
    for fo in result["failovers"]:
        print(f"failover: t={fo['t']:.1f} {fo['machine']} -- {fo['detail']}")
    c = result["client"]
    print(
        f"workload: {c['puts_acked']} puts acked, {c['gets']} gets, "
        f"{c['timeouts']} timeouts, {c['retries']} retries "
        f"({result['acked_writes']} acked writes, all readable after failover)"
    )
    rack_stats = result["rollup"]["rack"]
    print(
        f"\nrack latency: n={rack_stats['count']} "
        f"p50={rack_stats['p50']:.0f} ns p99={rack_stats['p99']:.0f} ns"
    )
    for machine, merged in sorted(result["rollup"]["per_machine"].items()):
        print(
            f"  {machine:10s} n={merged['count']:<4d} "
            f"p50={merged['p50']:8.0f} ns  p99={merged['p99']:8.0f} ns"
        )

    # Determinism: the whole scenario reproduces bit-for-bit.
    again = run_rack(args.machines, args.seed)
    assert json.dumps(again, sort_keys=True) == json.dumps(result, sort_keys=True), (
        "rack run was not deterministic"
    )
    print("\nOK: rack degraded gracefully; run reproduced bit-for-bit.")


if __name__ == "__main__":
    main()
