"""CI gate: fail when a bench regresses >25% against the committed baseline,
or when its simulated outcome drifts at all.

Usage::

    python benchmarks/check_perf_regression.py [--baseline BENCH_perf.json]
                                               [--min-ratio 0.75] [--quick]

Comparing absolute rates across machines is meaningless, so the gate
normalizes by interpreter speed first: the committed baseline records a
pure-Python calibration rate, and each committed bench rate is scaled by
``fresh_calibration / committed_calibration`` before the comparison.
A bench fails when::

    fresh_rate < min_ratio * committed_rate * (fresh_cal / committed_cal)

``--min-ratio`` defaults to 0.75 (the >25% regression threshold) and can
be overridden via the ``BENCH_MIN_RATIO`` environment variable.

A bench's ``sim`` block is the simulated outcome of its pinned-seed
workload, so it has no noise: every field must equal the committed
baseline exactly, and a drift names the bench and the field.  Quick
workloads have other sizes, so the ``sim`` check is skipped under
``--quick`` (and for a ``--fresh`` document measured with it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import perfkit
from run_perf import QUICK_SIZES


def check(baseline: dict, fresh_benches: dict, fresh_cal: float, min_ratio: float):
    committed_cal = baseline["calibration"]["rate"]
    scale = fresh_cal / committed_cal
    failures = []
    print(f"calibration: committed {committed_cal:,.0f}/s, fresh {fresh_cal:,.0f}/s "
          f"-> machine scale {scale:.3f}")
    for name, committed in sorted(baseline["benches"].items()):
        fresh = fresh_benches.get(name)
        if fresh is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        floor = min_ratio * committed["rate"] * scale
        ratio = fresh["rate"] / (committed["rate"] * scale)
        verdict = "ok" if fresh["rate"] >= floor else "REGRESSION"
        print(f"{name:>22}: {fresh['rate']:>12,.0f} {fresh['unit']} "
              f"(normalized {ratio:.2f}x of baseline, floor {floor:,.0f}) {verdict}")
        if fresh["rate"] < floor:
            failures.append(
                f"{name}: {fresh['rate']:,.0f} < floor {floor:,.0f} "
                f"({ratio:.2f}x of calibrated baseline)"
            )
    return failures


def check_sim(baseline: dict, fresh_benches: dict):
    """Exact gate on every committed ``sim`` block, field by field."""
    failures = []
    compared = 0
    for name, committed in sorted(baseline["benches"].items()):
        fresh = fresh_benches.get(name)
        if "sim" not in committed or fresh is None:
            continue  # a missing bench is already a rate-gate failure
        want, got = committed["sim"], fresh.get("sim", {})
        for field in sorted(set(want) | set(got)):
            compared += 1
            if want.get(field) != got.get(field):
                failures.append(
                    f"{name}: sim.{field} drifted: committed {want.get(field)!r}, "
                    f"fresh {got.get(field)!r}"
                )
    print(f"sim blocks: {compared - len(failures)}/{compared} fields identical")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_perf.json")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=float(os.environ.get("BENCH_MIN_RATIO", "0.75")),
    )
    parser.add_argument(
        "--quick", action="store_true", help="~10x smaller workloads (noisier)"
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="path to a run_perf.py output to check instead of re-measuring",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    meta = baseline.get("meta")
    if meta is not None and meta.get("seed") != perfkit.BENCH_SEED:
        print(
            f"warning: baseline was measured with seed {meta.get('seed')!r}, "
            f"this tree benches with seed {perfkit.BENCH_SEED} -- workloads differ"
        )
    quick = args.quick
    if args.fresh:
        with open(args.fresh) as fh:
            fresh = json.load(fh)
        fresh_benches = fresh["benches"]
        fresh_cal = fresh["calibration"]["rate"]
        quick = quick or fresh.get("generated_by", "").endswith("--quick")
    elif args.quick:
        # Quick workloads have different sizes; rates stay comparable
        # because every bench reports a per-operation rate.
        fresh_benches = perfkit.run_all(**QUICK_SIZES)
        fresh_cal = perfkit.calibrate()["rate"]
    else:
        fresh_benches = perfkit.run_all()
        fresh_cal = perfkit.calibrate()["rate"]

    failures = check(baseline, fresh_benches, fresh_cal, args.min_ratio)
    if quick:
        print("sim blocks: not compared (quick workloads have other sizes)")
    else:
        failures += check_sim(baseline, fresh_benches)
    if failures:
        print("\nperformance regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall benches within {(1 - args.min_ratio) * 100:.0f}% of baseline"
          + ("" if quick else ", every sim block identical"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
