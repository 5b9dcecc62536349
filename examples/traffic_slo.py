#!/usr/bin/env python3
"""Serving SLOs under a flash crowd: what admission control buys.

Drives the ``rack_traffic`` preset -- the partition-tolerant
``rack_quorum`` fleet (6 boards, rf=3, w=r=2) under its traffic
scenario: 10^6 simulated users open-loop at 0.75 req/s each, a 10x
flash crowd in the middle of the run, a gateway doing token-bucket
admission, batching, and LRU caching in front of the shard servers
and accelerator-backed app models.

The scenario runs **twice** from the same seed:

* *protected* -- gateway admission on.  The token bucket turns the
  crowd's excess away at the door (typed ``throttled`` rejections) and
  every request class keeps its p99 inside the SLO, flash phase
  included.
* *unprotected* -- same traffic, admission off.  The backend queue
  grows for the whole flash window and the flash-phase p99 blows
  through every class objective by an order of magnitude.

Both runs come from the same kernel-owned RNG stream, so the arrival
trace is identical -- the only variable is the gateway policy.  The
same seed always reproduces both runs bit for bit; ``--json`` prints
the canonical document the CI determinism smoke diffs.  The text output
also reports the simulator's own speed: host seconds per simulated
second of each run.

Run:  python examples/traffic_slo.py [--seed N] [--json]
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import preset
from repro.fleet import Rack, conservation, no_errors, require
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.traffic import TrafficEngine


def run_scenario(seed: int, admission: bool):
    """One full serving scenario; returns the canonical result and the
    host seconds its simulation took."""
    cfg = preset("rack_traffic")
    fleet = cfg.fleet if seed == cfg.fleet.seed else replace(cfg.fleet, seed=seed)
    traffic = cfg.traffic
    if traffic.gateway.admission != admission:
        traffic = replace(traffic, gateway=replace(traffic.gateway, admission=admission))

    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    engine = TrafficEngine(rack, traffic, obs=obs)
    started = time.perf_counter()
    report = engine.run()
    host_s = time.perf_counter() - started

    # Every offered request is accounted for exactly once, and the
    # healthy rack serves none with an error.
    require(conservation(report["gateway"]) + no_errors(report["gateway"]))

    report["seed"] = seed
    report["snapshot"] = snapshot_jsonl(obs)
    return report, host_s


def flash_met(report: dict) -> dict:
    """Per-class ``met`` verdicts for the flash-crowd phase."""
    return {
        kind: summary["met"]
        for kind, summary in report["slo"]["phases"]["flash"].items()
    }


def run_both(seed: int):
    """Both runs: the canonical result, and each run's host seconds."""
    protected, protected_s = run_scenario(seed, admission=True)
    unprotected, unprotected_s = run_scenario(seed, admission=False)

    # Same seed, same arrival trace: the offered load is identical.
    assert protected["gateway"]["offered"] == unprotected["gateway"]["offered"]

    # The headline contrast: admission keeps every class's flash-phase
    # p99 inside its SLO; without it the crowd violates the objectives.
    assert all(flash_met(protected).values()), (
        f"admission failed to protect the flash-phase p99: {flash_met(protected)}"
    )
    assert not all(flash_met(unprotected).values()), (
        "unprotected run unexpectedly met every flash-phase SLO -- "
        "the crowd no longer stresses the backend"
    )
    assert protected["gateway"]["rejected_throttled"] > 0, (
        "admission control never engaged"
    )
    result = {"protected": protected, "unprotected": unprotected}
    return result, {"protected": protected_s, "unprotected": unprotected_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=preset("rack_traffic").fleet.seed)
    parser.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON result (the determinism fixture)",
    )
    args = parser.parse_args()

    result, host_s = run_both(args.seed)

    if args.json:
        print(json.dumps(result, sort_keys=True))
        return

    cfg = preset("rack_traffic").traffic
    print(
        f"scenario: {cfg.users:,} users x {cfg.per_user_rps} req/s open-loop, "
        f"{cfg.flash_multiplier:g}x flash crowd at "
        f"t={cfg.flash_at_ns / 1e6:g}..{(cfg.flash_at_ns + cfg.flash_duration_ns) / 1e6:g} ms, "
        f"seed={args.seed}"
    )
    for label in ("protected", "unprotected"):
        report = result[label]
        gateway = report["gateway"]
        print(
            f"\n--- {label} (admission "
            f"{'on' if report['scenario']['admission'] else 'off'}) ---"
        )
        print(
            f"offered={gateway['offered']} completed={gateway['completed']} "
            f"cache_hits={gateway['cache_hits']} "
            f"throttled={gateway['rejected_throttled']} shed={gateway['rejected_shed']} "
            f"max_queue={gateway['max_queue_depth']}"
        )
        for phase, classes in report["slo"]["phases"].items():
            for kind, s in classes.items():
                print(
                    f"  {phase:>6}/{kind:8s} n={s['count']:<6d} "
                    f"p50={s['p50_ns']:>9.0f} p99={s['p99_ns']:>9.0f} "
                    f"p999={s['p999_ns']:>9.0f} slo={s['slo_ns']:>7.0f} "
                    f"attain={s['attainment'] * 100:6.2f}%  "
                    f"{'met' if s['met'] else 'VIOLATED'}"
                )
        sim_s = report["t_final_ns"] / 1e9
        print(
            f"  simulator: {host_s[label] / sim_s:.1f} host s per simulated s "
            f"({sim_s * 1e3:.2f} ms simulated in {host_s[label]:.2f} s)"
        )

    # Determinism: the whole double scenario reproduces bit-for-bit.
    again, _ = run_both(args.seed)
    assert json.dumps(again, sort_keys=True) == json.dumps(result, sort_keys=True), (
        "traffic scenario was not deterministic"
    )
    print(
        "\nOK: admission control held the flash-phase p99 inside every SLO, "
        "the unprotected run violated it, and both runs reproduced bit-for-bit."
    )


if __name__ == "__main__":
    main()
