#!/usr/bin/env python3
"""The serving-path performance ledger: host cost end to end, by layer.

Runs the four workloads of ``workloads.py`` and prints every metric by
name with its unit.  End-to-end metrics come from untraced runs; the
per-layer breakdown comes from one more run of each workload under
``cProfile``, whose simulated output must equal the untraced runs' bit
for bit.

Protocol: every run is a fresh child process (``PYTHONHASHSEED=0``), one
at a time; a short discarded warm-up per workload fills ``.pyc`` files
and the page cache; timed runs go round-robin across workloads so host
drift hits them all alike; results are medians with quartiles.

    python benchmarks/ledger/run.py [--seed N] [--runs 7] [--out FILE]

One workload, for a harness that repeats runs itself (the last line of
standard output is one JSON object: end-to-end metrics with ``--trace
0``, per-layer metrics with ``--trace 1``):

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

A failed check sets ``correct`` to false in harness mode and the exit
status to 1 in ledger mode; a run that cannot complete at all exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Simulated arrival window of the discarded warm-up run.
WARMUP_MS = 1.0

#: A child that takes longer than this is killed and the ledger fails.
CHILD_TIMEOUT_S = 150.0

#: Fewest untraced children in one timed run.
MIN_CHILDREN = 3

#: Tracing slows a run by 3-5x; a traced run's untraced children leave
#: room for the traced child in the time budget.
TRACE_SLOWDOWN_ESTIMATE = 4.5

#: End-to-end metrics: name -> unit.  "Host" metrics are timed; the rest
#: are simulated outputs, exact at a fixed seed.  Bounds and the better
#: direction of every metric live in BENCHMARK.json.
END_TO_END = {
    "sim_req_per_s": "1/s",
    "slowdown_x": "x",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "slo_goodput_frac": "frac",
}
HOST_METRICS = ("sim_req_per_s", "slowdown_x", "setup_s", "peak_rss_mb")

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = "frac"
    PER_LAYER[f"{_layer}.calls_per_req"] = "1/req"
PER_LAYER.update(
    {
        "other.self_share": "frac",
        "trace.overhead_x": "x",
        "sim.events_per_req": "1/req",
        "sim.spawns_per_req": "1/req",
        "sim.host_ns_per_event": "ns",
        "net.frames_per_req": "1/req",
        "net.bytes_per_req": "B/req",
        "switch.forwarded_per_req": "1/req",
        "switch.partition_drops": "count",
        "obs.lookups_per_req": "1/req",
        "obs.updates_per_req": "1/req",
        "obs.instruments": "count",
        "gateway.latency_samples": "count",
        "gateway.sim_p999_us": "us",
        "gateway.admit_frac": "frac",
        "gateway.cache_hit_frac": "frac",
        "gateway.mean_batch": "req",
        "gateway.max_queue_depth": "req",
        "gateway.shed_frac": "frac",
        "gateway.retries_per_req": "1/req",
        "gateway.hedges_per_req": "1/req",
        "gateway.hedge_win_frac": "frac",
        "gateway.error_frac": "frac",
        "client.attempts_per_op": "1/op",
        "client.timeouts_per_op": "1/op",
        "client.rejections_per_op": "1/op",
        "client.late_per_op": "1/op",
        "client.sim_op_p50_us": "us",
        "client.sim_op_p99_us": "us",
        "server.served_per_req": "1/req",
        "server.replicated_per_put": "1/put",
        "server.stale_epoch_rejects": "count",
        "store.ops_per_req": "1/req",
        "antientropy.passes": "count",
        "antientropy.hash_comparisons": "count",
        "antientropy.repairs": "count",
    }
)


class LedgerError(RuntimeError):
    """A child run could not complete."""


def run_child(
    workload: str, seed: int, duration_ms: Optional[float] = None, profile: bool = False
) -> dict:
    """One workload run in a fresh interpreter; returns its JSON result
    plus ``setup_s`` (child start to ``engine.start()``)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    if duration_ms is not None:
        cmd += ["--duration-ms", str(duration_ms)]
    if profile:
        cmd.append("--profile")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise LedgerError(f"{workload} run exceeded {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        raise LedgerError(
            f"{workload} run exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux: comparable across processes.
    result["setup_s"] = result["setup_done"] - started
    return result


def e2e_values(run: dict) -> Dict[str, float]:
    """One untraced run's end-to-end metrics."""
    values = {
        "sim_req_per_s": run["offered"] / run["host_s"],
        "slowdown_x": run["host_s"] / run["sim_s"],
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    values.update({k: run["exact"][k] for k in END_TO_END if k in run["exact"]})
    return values


def check_runs(runs: List[dict], traced: Optional[dict] = None) -> List[str]:
    """Cross-run checks: each run's own checks, then determinism (every
    run of one seed, traced or not, has one digest)."""
    failed = [f"{r['workload']}: {msg}" for r in runs for msg in r["failed_checks"]]
    if traced is not None:
        failed += [f"{traced['workload']} (traced): {m}" for m in traced["failed_checks"]]
    digests = {r["sim_digest"] for r in runs + ([traced] if traced else [])}
    if len(digests) > 1:
        failed.append(f"{runs[0]['workload']}: runs of one seed disagree ({len(digests)} digests)")
    return failed


def per_layer_values(runs: List[dict], traced: dict) -> Dict[str, float]:
    """Per-layer metrics: exact counters and call counts from the traced
    run, host-time ratios against the fastest untraced run."""
    host_s = min(r["host_s"] for r in runs)
    values = dict(traced["counters"])
    values.update(traced["layers"])
    values["gateway.latency_samples"] = traced["exact"]["latency_samples"]
    values["gateway.sim_p999_us"] = traced["exact"]["sim_p999_us"]
    values["sim.host_ns_per_event"] = host_s * 1e9 / traced["counters"]["sim.events"]
    values["trace.overhead_x"] = traced["host_s"] / host_s
    return {name: values[name] for name in PER_LAYER}


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def timed_children(workload: str, seed: int, seconds: float, trace: bool = False) -> List[dict]:
    """Untraced children of one workload, back to back, until ``seconds``
    are spent (at least :data:`MIN_CHILDREN`); with ``trace`` the budget
    keeps room for the traced child that follows."""
    budget_end = time.perf_counter() + seconds
    children: List[dict] = []
    while True:
        started = time.perf_counter()
        children.append(run_child(workload, seed))
        took = time.perf_counter() - started
        need = took * (TRACE_SLOWDOWN_ESTIMATE if trace else 1.0)
        enough = len(children) >= (1 if trace else MIN_CHILDREN)
        if enough and time.perf_counter() + need > budget_end:
            return children


def run_values(children: List[dict]) -> Dict[str, float]:
    """One run's end-to-end metrics from its children: host cost of the
    fastest child (contention on a shared host only ever adds time),
    median set-up time and peak RSS, and the simulated metrics, which
    every child of one seed reproduces exactly."""
    per_child = [e2e_values(c) for c in children]
    values = {m: per_child[0][m] for m in END_TO_END if m not in HOST_METRICS}
    values["sim_req_per_s"] = max(v["sim_req_per_s"] for v in per_child)
    values["slowdown_x"] = min(v["slowdown_x"] for v in per_child)
    values["setup_s"] = statistics.median(v["setup_s"] for v in per_child)
    values["peak_rss_mb"] = statistics.median(v["peak_rss_mb"] for v in per_child)
    return values


# -- harness mode: one workload, one JSON line -------------------------------


def harness(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_child(workload, seed, duration_ms=WARMUP_MS)
    children = timed_children(workload, seed, seconds, trace)
    traced = run_child(workload, seed, profile=True) if trace else None
    failed_checks = check_runs(children, traced)
    for message in failed_checks:
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        values, units = per_layer_values(children, traced), PER_LAYER
    else:
        values, units = run_values(children), END_TO_END
    attempted = sum(c["offered"] for c in children)
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": attempted if failed_checks else 0,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


# -- ledger mode: every workload, round-robin --------------------------------


def ledger(seed: int, n_runs: int, seconds: float) -> dict:
    for workload in WORKLOADS:
        run_child(workload, seed, duration_ms=WARMUP_MS)
    runs: Dict[str, List[List[dict]]] = {w: [] for w in WORKLOADS}
    for _ in range(n_runs):
        for workload in WORKLOADS:
            runs[workload].append(timed_children(workload, seed, seconds))
    doc = {
        "seed": seed,
        "runs": n_runs,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "units": {**END_TO_END, **PER_LAYER},
        "workloads": {},
    }
    for workload in WORKLOADS:
        traced = run_child(workload, seed, profile=True)
        children = [c for run in runs[workload] for c in run]
        per_run = [run_values(run) for run in runs[workload]]
        doc["workloads"][workload] = {
            "end_to_end": {m: [v[m] for v in per_run] for m in END_TO_END},
            "per_layer": per_layer_values(children, traced),
            "offered": traced["offered"],
            "sim_digest": traced["sim_digest"],
            "failed_checks": check_runs(children, traced),
        }
    return doc


def render(doc: dict) -> str:
    lines = [
        f"serving-path ledger: seed={doc['seed']}, {doc['runs']} runs of "
        f"{doc['seconds']:g} s per workload"
    ]
    for workload, entry in doc["workloads"].items():
        lines.append(
            f"\n== {workload}: {entry['offered']} offered, "
            f"{entry['per_layer']['gateway.latency_samples']} latency samples, "
            f"sim_digest {entry['sim_digest'][:16]}"
        )
        for metric, values in entry["end_to_end"].items():
            q1, median, q3 = quartiles(values)
            unit = doc["units"][metric]
            lines.append(
                f"  {metric:<18} {median:>14.6g} {unit:<5} [q1 {q1:.6g}, q3 {q3:.6g}]"
            )
        for metric, value in entry["per_layer"].items():
            lines.append(f"  {metric:<34} {value:>12.6g} {doc['units'][metric]}")
        for message in entry["failed_checks"]:
            lines.append(f"  CHECK FAILED: {message}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=7, help="timed runs per workload")
    parser.add_argument("--out", type=Path, help="write the ledger document here")
    parser.add_argument("--workload", choices=WORKLOADS, help="harness mode: one workload")
    parser.add_argument(
        "--seconds", type=float, help="length of one timed run (default: BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated ledger must not leave a child running: raising here
    # lets subprocess.run kill and reap the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    seconds = args.seconds or json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    try:
        if args.workload:
            result = harness(args.workload, args.seed, seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        doc = ledger(args.seed, args.runs, seconds)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    print(render(doc))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(e["failed_checks"] for e in doc["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
