"""Run the hot-path benchmarks and write ``BENCH_perf.json``.

Usage::

    python benchmarks/run_perf.py [--out BENCH_perf.json] [--quick]

The output document carries:

* ``benches`` -- fresh measurements from :mod:`perfkit` (best-of-N
  wall-clock rates);
* ``calibration`` -- a fixed pure-Python spin-loop rate, the host's
  scalar interpreter speed, used by ``check_perf_regression.py`` to
  compare rates across machines of different absolute speed.

``--quick`` shrinks the workloads ~10x for smoke use; quick rates are
noisier and are not suitable for committing as a baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

import perfkit

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
        print(f"{name:>22}: {result['rate']:>12,.0f} {result['unit']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
