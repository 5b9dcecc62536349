"""Run the hot-path benchmarks and write ``BENCH_perf.json``.

Usage::

    python benchmarks/run_perf.py [--out BENCH_perf.json] [--quick]

The output document carries:

* ``benches`` -- fresh measurements from :mod:`perfkit` (best-of-N
  wall-clock rates);
* ``calibration`` -- a fixed pure-Python spin-loop rate, the host's
  scalar interpreter speed, used by ``check_perf_regression.py`` to
  compare rates across machines of different absolute speed;
* ``pre_pr_baseline`` -- the same benches measured on the tree *before*
  the hot-path pass (recorded once, from interleaved A/B runs on the
  baseline machine), so the speedup of the pass itself stays auditable:
  ``speedup_vs_pre_pr`` is fresh rate / pre-PR rate.

``--quick`` shrinks the workloads ~10x for smoke use; quick rates are
noisier and are not suitable for committing as a baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

import perfkit

#: Rates measured on the pre-optimization tree with the *same* bench
#: code, interleaved A/B on one machine (best of 3 alternating rounds).
PRE_PR_BASELINE = {
    "kernel_dispatch": {"rate": 1_918_777, "unit": "events/s"},
    "kernel_timeout_procs": {"rate": 768_520, "unit": "events/s"},
    "eci_serialization": {"rate": 236_364, "unit": "msgs/s"},
    "eci_link_flits": {"rate": 159_490, "unit": "flits/s"},
}

QUICK_SIZES = {
    "kernel_dispatch": {"events": 20_000},
    "kernel_timeout_procs": {"procs": 50, "steps": 100},
    "eci_serialization": {"messages": 2_000},
    "eci_link_flits": {"flits": 2_000},
    "fleet_quorum_put": {"ops": 100, "repeats": 2},
    "traffic_kvs_mix": {"duration_ms": 0.5, "repeats": 2},
    "antientropy_sync": {"keys": 300, "divergent": 30, "repeats": 2},
}


def measure(quick: bool = False, repeats: int | None = None) -> dict:
    overrides = {k: dict(v) for k, v in QUICK_SIZES.items()} if quick else {}
    if repeats is not None:
        # Best-of-N is a minimum-noise estimator: more repeats tightens
        # it on noisy hosts (use a high count when committing a baseline).
        for name in perfkit.BENCHES:
            overrides.setdefault(name, {})["repeats"] = repeats
    benches = perfkit.run_all(**overrides)
    calibration = perfkit.calibrate()
    speedup = {
        name: round(benches[name]["rate"] / base["rate"], 3)
        for name, base in PRE_PR_BASELINE.items()
        if name in benches
    }
    return {
        "schema": 1,
        "generated_by": "benchmarks/run_perf.py" + (" --quick" if quick else ""),
        "meta": {
            # The workload identity: which seed drove every bench kernel
            # and which interpreter produced the rates.  A baseline
            # comparison across documents is only meaningful when these
            # match (check_perf_regression warns otherwise).
            "seed": perfkit.BENCH_SEED,
            "python": platform.python_version(),
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "calibration": calibration,
        "benches": benches,
        "pre_pr_baseline": PRE_PR_BASELINE,
        "speedup_vs_pre_pr": speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument(
        "--quick", action="store_true", help="~10x smaller workloads (noisier)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="override per-bench repeats"
    )
    args = parser.parse_args(argv)
    doc = measure(quick=args.quick, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, result in doc["benches"].items():
        speedup = doc["speedup_vs_pre_pr"].get(name)
        extra = f"  ({speedup:.2f}x vs pre-PR)" if speedup else ""
        print(f"{name:>22}: {result['rate']:>12,.0f} {result['unit']}{extra}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
