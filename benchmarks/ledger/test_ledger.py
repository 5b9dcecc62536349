"""Fast checks of the serving-path ledger (each workload at 1 ms simulated).

    PYTHONPATH=src python -m pytest -q benchmarks/ledger
"""

import json

import pytest

import compare
import layers
import run
import workloads

SHORT_MS = 1.0


def _declared(section):
    doc = json.loads(run.BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metrics_emitted_and_exact_metrics_repeat(workload):
    seed = workloads.DEFAULT_SEED
    first, second = (run.run_child(workload, seed, SHORT_MS) for _ in range(2))
    traced = run.run_child(workload, seed, SHORT_MS, profile=True)
    assert run.check_runs([first, second], traced) == []

    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert set(run.run_values([first, second])) == set(run.END_TO_END)
    per_layer = run.per_layer_values([first, second], traced)
    assert set(per_layer) == set(run.PER_LAYER)

    assert first["exact"] == second["exact"] == traced["exact"]
    assert first["counters"] == second["counters"] == traced["counters"]
    assert per_layer["other.self_share"] <= layers.OTHER_LIMIT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_passes_checks(workload):
    result = run.run_child(workload, 42, SHORT_MS)
    assert result["failed_checks"] == []
    assert result["offered"] > 0


def test_unmapped_module_fails_the_run(monkeypatch):
    monkeypatch.delitem(layers.FILE_LAYERS, "sim/kernel.py")
    result = workloads.measure("accel_only", 42, SHORT_MS, profile=True)
    assert any("layer map" in message for message in result["failed_checks"])


def test_compare_verdicts():
    assert compare.verdict([1.0] * 3, [1.0] * 3, "lower", 0.1) == "identical"
    assert compare.verdict([10, 10.1, 9.9], [10.5, 10.6, 10.4], "lower", 0.1) == "within"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1) == "outside"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "higher", 0.1) == "within"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, [9.0, 11.0, 13.0, 15.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [4.0, 5.0, 6.0, 7.0], "lower", 0.1) == "better"
