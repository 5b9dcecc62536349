#!/usr/bin/env python3
"""Partition soak: a quorum rack splits 4-vs-2 mid-workload and heals.

Builds a rack from the ``rack_quorum`` preset (6 boards, replication
factor 3, derived majority quorums w=2/r=2), drives a mixed put/get
workload, and -- through a ``fleet.partition`` fault-plan entry --
splits the switch into a majority and a minority side for a fixed
window.  Optionally a minority board is killed mid-split (``--kill``),
exercising the epoch-guarded promotion path.

What the run must demonstrate (asserted, every run):

* majority-placed keys stay fully served through the split, with
  hinted handoffs queued for cut-off replicas;
* minority-placed keys go *unavailable rather than stale* (writes and
  reads fail fast with a typed error);
* at the heal the hints drain and every acknowledged write reads back;
* the complete client history is linearizable (Wing & Gong audit);
* the whole scenario reproduces bit-for-bit under one seed.

Run:  python examples/partition_soak.py [--seed N] [--kill] [--json]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import FaultSpec, FaultsConfig, preset
from repro.faults import FaultInjector
from repro.fleet import (
    FleetKvsError,
    FleetRollup,
    HistoryRecorder,
    Rack,
    check_history,
    durability,
    linearizability,
    read_acked,
    require,
)
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.sim import Timeout

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")
SPLIT_AT_NS = 60_000.0
SPLIT_NS = 500_000.0
N_KEYS = 16
N_OPS = 48
OP_GAP_NS = 20_000.0


def run_soak(seed: int, kill_minority: bool = False) -> dict:
    """One full scenario; returns the canonical (deterministic) result."""
    fleet = preset("rack_quorum").fleet
    if seed != fleet.seed:
        import dataclasses

        fleet = dataclasses.replace(fleet, seed=seed)

    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    client = rack.client()
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    client.history = recorder

    group_arg = ",".join(MAJ) + "|" + ",".join(MIN)
    injector = FaultInjector(
        FaultsConfig(
            events=(
                FaultSpec(
                    "fleet.partition",
                    "split",
                    at=SPLIT_AT_NS,
                    duration=SPLIT_NS,
                    arg=group_arg,
                ),
            )
        ),
        obs=obs,
    )
    injector.arm_fleet(rack)

    keys = [f"soak:{i:03d}".encode() for i in range(N_KEYS)]
    unavailable = []
    victim = MIN[0] if kill_minority else None

    def workload():
        for i in range(N_OPS):
            key = keys[i % N_KEYS]
            if kill_minority and i == 6:
                # The controller side declares the cut-off board dead;
                # the membership bump fences the new quorum's epoch.
                assert rack.active_partition is not None, "kill must land mid-split"
                rack.kill(victim, reason="partitioned away")
            try:
                yield from client.put(key, f"v{i}".encode())
            except FleetKvsError:
                unavailable.append((rack.kernel.now, key.decode()))
            yield Timeout(OP_GAP_NS)
        # Cross the window boundary: the first touch past it heals.
        yield Timeout(SPLIT_NS)
        return (yield from read_acked(client, [client]))

    reads = rack.kernel.run_process(workload(), name="partition-soak")

    # Partition-tolerance invariants (the run *must* uphold them):
    report = check_history(recorder)
    require(durability([client], reads) + linearizability(recorder, report))
    assert rack.active_partition is None, "partition never healed"
    assert rack.switch.stats["dropped_partitioned"] > 0, "split dropped nothing"
    assert unavailable, "no key went unavailable: the split was toothless"
    assert client.stats["hints_sent"] >= 1, "no hinted handoff was exercised"
    assert not any(m.server.hints for m in rack.machines.values()), (
        "hints survived the heal undrained"
    )
    if kill_minority:
        assert victim not in rack.ring.machines, "ring kept the dead board"

    rollup = FleetRollup(obs)
    return {
        "seed": fleet.seed,
        "kill": victim,
        "t_final_ns": rack.kernel.now,
        "ring_epoch": rack.ring_epoch,
        "client": dict(client.stats),
        "acked_writes": len(client.acked),
        "unavailable": [[t, k] for t, k in unavailable],
        "dropped_partitioned": rack.switch.stats["dropped_partitioned"],
        "partitions": [list(entry) for entry in rack.partitions],
        "trace": [list(entry) for entry in injector.trace],
        "audit": report.summary(),
        "rollup": rollup.to_dict(),
        "snapshot": snapshot_jsonl(obs),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=preset("rack_quorum").fleet.seed)
    parser.add_argument(
        "--kill", action="store_true",
        help="also kill a minority board mid-split (epoch-guarded promotion)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON result (the determinism fixture)",
    )
    args = parser.parse_args()

    result = run_soak(args.seed, kill_minority=args.kill)

    if args.json:
        print(json.dumps(result, sort_keys=True))
        return

    print(f"rack_quorum: 6 machines, rf=3 w=2 r=2, seed={result['seed']}")
    print(
        f"split {'|'.join([','.join(MAJ), ','.join(MIN)])} "
        f"at t={SPLIT_AT_NS:g} ns for {SPLIT_NS:g} ns"
    )
    if result["kill"]:
        print(f"killed {result['kill']} mid-split (epoch-guarded promotion)")
    for t, event, detail in result["partitions"]:
        print(f"  t={t:>10.1f}  {event:5s}  {detail}")
    c = result["client"]
    print(
        f"workload: {c['puts_acked']} puts acked, {c['gets']} gets, "
        f"{c['timeouts']} timeouts, {c['rejections']} rejections, "
        f"{c['hints_sent']} hints sent"
    )
    print(
        f"unavailable mid-split: {len(result['unavailable'])} ops "
        f"(failed fast -- never stale); "
        f"{result['dropped_partitioned']} frames dropped at the switch"
    )
    audit = result["audit"]
    print(
        f"audit: {audit['ops']} ops over {audit['keys']} keys -- linearizable"
    )
    print(f"ring epoch at exit: {result['ring_epoch']}")

    # Determinism: the whole scenario reproduces bit-for-bit.
    again = run_soak(args.seed, kill_minority=args.kill)
    assert json.dumps(again, sort_keys=True) == json.dumps(result, sort_keys=True), (
        "partition soak was not deterministic"
    )
    print("\nOK: no acked write lost, history linearizable, bit-identical rerun.")


if __name__ == "__main__":
    main()
