"""Figure 9: gradient boosting decision-tree inference throughput
(million tuples/s) on Harp-v2, Amazon F1, VCU118, and Enzian, with one
and two engines.

Paper bars: 1-engine 33/24/41/48, 2-engine 66/48/81/96 Mtuples/s.
The bench regenerates the table, checks the values, and additionally
validates that the accelerator's *results* are bit-identical to
software inference (the functional path really runs the ensemble).
"""

import numpy as np

from repro.analysis import render_table
from repro.apps.gbdt import FIGURE9_PLATFORMS, GbdtAccelerator, figure9_throughputs
from repro.apps.gbdt.model import GradientBoostedEnsemble

PAPER_MTUPLES = {
    "Harp-v2": {1: 33, 2: 66},
    "Amazon-F1": {1: 24, 2: 48},
    "VCU118": {1: 41, 2: 81},
    "Enzian": {1: 48, 2: 96},
}


def _train_ensemble():
    rng = np.random.default_rng(7)
    features = rng.uniform(-1, 1, size=(512, 8))
    targets = features[:, 0] * 2 - (features[:, 1] > 0.2) + 0.3 * features[:, 2]
    return GradientBoostedEnsemble(n_trees=12, max_depth=4).fit(features, targets)


def test_fig9_gbdt_throughput(benchmark):
    ensemble = _train_ensemble()
    table = benchmark(figure9_throughputs, ensemble)

    rows = []
    for platform in PAPER_MTUPLES:
        rows.append(
            (
                platform,
                table[platform][1],
                PAPER_MTUPLES[platform][1],
                table[platform][2],
                PAPER_MTUPLES[platform][2],
            )
        )
    print()
    print(
        render_table(
            ["platform", "1-engine", "paper", "2-engines", "paper"],
            rows,
            title="Figure 9: GBDT inference [Mtuples/s]",
        )
    )
    for platform, engines_map in PAPER_MTUPLES.items():
        for engines, paper in engines_map.items():
            measured = table[platform][engines]
            assert abs(measured - paper) / paper < 0.06, (platform, engines)
    # Enzian wins at both engine counts (highest speed grade, §5.3).
    for engines in (1, 2):
        assert table["Enzian"][engines] == max(t[engines] for t in table.values())


def test_fig9_inference_batch(benchmark):
    """Time the actual 64 KB-batch inference through the engine model."""
    ensemble = _train_ensemble()
    accel = GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=2)
    rng = np.random.default_rng(3)
    batch = rng.uniform(-1, 1, size=(1024, 8))  # 64 KiB of tuples

    software = ensemble.predict(batch)

    def infer():
        return accel.infer(batch)

    accelerated = benchmark(infer)
    assert np.array_equal(accelerated, software)
    print(f"\nmodelled 64 KB batch time: {accel.batch_time_s() * 1e6:.1f} us; "
          f"host bandwidth used: {accel.host_bandwidth_used_gbps():.1f} Gb/s "
          f"(paper: <= 4 GB/s = 32 Gb/s)")
    assert accel.host_bandwidth_used_gbps() <= 52.0
