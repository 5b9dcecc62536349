#!/usr/bin/env python3
"""Compare two ledger documents, workload by workload and metric by metric.

    python benchmarks/ledger/compare.py BASE.json NEW.json

Both documents come from ``run.py --out`` with identical settings.  For
each end-to-end metric the table gives both sides' median and quartiles,
the ratio NEW/BASE of the medians, and a verdict against the bound that
``BENCHMARK.json`` fixes for the metric:

* ``identical`` -- every run on both sides reads the same value (the
  simulated metrics at one seed must);
* ``within`` / ``outside`` -- NEW's median is / is not within the bound
  of BASE's in the metric's worse direction;
* ``unresolved`` -- either side's spread (quartile distance over median)
  is wider than the bound, so a difference cannot be told from noise,
  unless every NEW run reads better than every BASE run (``better``).

Per-layer metrics are listed with their ratio and no verdict.  Exit
status is 1 when any metric is ``outside`` its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BENCHMARK_JSON, quartiles  # noqa: E402


def load_bounds() -> Dict[str, dict]:
    return {m["name"]: m for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    if len(set(base)) == 1 and set(base) == set(new):
        return "identical"
    sign = 1.0 if better == "lower" else -1.0
    (b1, b_med, b3), (n1, n_med, n3) = quartiles(base), quartiles(new)
    if max((b3 - b1) / b_med, (n3 - n1) / n_med) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        return "unresolved"
    return "within" if sign * (n_med - b_med) / b_med <= bound else "outside"


def compare(base: dict, new: dict, bounds: Dict[str, dict]) -> tuple:
    """(report lines, number of metrics outside their bound)."""
    lines = []
    outside = 0
    for workload, b_entry in base["workloads"].items():
        n_entry = new["workloads"][workload]
        lines.append(f"\n== {workload}  (median [q1, q3]; ratio = new/base)")
        for metric, spec in bounds.items():
            b_vals, n_vals = b_entry["end_to_end"][metric], n_entry["end_to_end"][metric]
            bq, nq = quartiles(b_vals), quartiles(n_vals)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            v = verdict(b_vals, n_vals, spec["better"], spec["bound"])
            outside += v == "outside"
            lines.append(
                f"  {metric:<18} base {bq[1]:.6g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                f"  new {nq[1]:.6g} [{nq[0]:.5g}, {nq[2]:.5g}]"
                f"  ratio {ratio:.4f}  {v} (bound {spec['bound']:g}, {spec['better']} is better)"
            )
        for metric, b_val in b_entry["per_layer"].items():
            n_val = n_entry["per_layer"][metric]
            ratio = 1.0 if n_val == b_val else n_val / b_val if b_val else float("nan")
            lines.append(
                f"  {metric:<34} base {b_val:.6g}  new {n_val:.6g}  ratio {ratio:.4f}"
            )
    return lines, outside


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    lines, outside = compare(base, new, load_bounds())
    print(f"BASE {args.base} (seed {base['seed']}, {base['runs']} runs) vs "
          f"NEW {args.new} (seed {new['seed']}, {new['runs']} runs)")
    print("\n".join(lines))
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
