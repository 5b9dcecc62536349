"""Tests for the GBDT workload: model correctness and Figure 9 shape."""

import numpy as np
import pytest

from repro.apps.gbdt import (
    FIGURE9_PLATFORMS,
    EnginePlatform,
    GbdtAccelerator,
    figure9_throughputs,
)
from repro.apps.gbdt.model import DecisionTree, GradientBoostedEnsemble


def make_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1, 1, size=(n, 4))
    targets = (
        2.0 * features[:, 0]
        - 1.5 * (features[:, 1] > 0)
        + 0.5 * features[:, 2] * features[:, 3]
    )
    return features, targets


def test_tree_fits_a_step_function():
    features = np.linspace(-1, 1, 200).reshape(-1, 1)
    targets = (features[:, 0] > 0).astype(float)
    tree = DecisionTree(max_depth=2).fit(features, targets)
    predictions = tree.predict(features)
    assert np.abs(predictions - targets).mean() < 0.1


def test_tree_respects_max_depth():
    features, targets = make_dataset()
    tree = DecisionTree(max_depth=3).fit(features, targets)
    assert tree.depth <= 4  # root at depth 1


def test_tree_constant_targets_single_leaf():
    features = np.ones((10, 2))
    targets = np.full(10, 3.5)
    tree = DecisionTree().fit(features, targets)
    assert tree.predict(features) == pytest.approx(np.full(10, 3.5))


def test_tree_validation():
    with pytest.raises(ValueError):
        DecisionTree(max_depth=0)
    with pytest.raises(ValueError):
        DecisionTree().fit(np.ones((3,)), np.ones(3))
    with pytest.raises(ValueError):
        DecisionTree().fit(np.ones((0, 2)), np.ones(0))
    with pytest.raises(ValueError):
        DecisionTree().fit(np.ones((3, 2)), np.ones(4))


def test_flat_round_trip_preserves_predictions():
    features, targets = make_dataset()
    tree = DecisionTree(max_depth=4).fit(features, targets)
    clone = DecisionTree.from_flat(tree.to_flat())
    assert clone.predict(features) == pytest.approx(tree.predict(features))


def test_boosting_reduces_error_with_more_trees():
    features, targets = make_dataset()
    small = GradientBoostedEnsemble(n_trees=2).fit(features, targets)
    large = GradientBoostedEnsemble(n_trees=24).fit(features, targets)
    err_small = np.abs(small.predict(features) - targets).mean()
    err_large = np.abs(large.predict(features) - targets).mean()
    assert err_large < err_small * 0.7


def test_ensemble_validation():
    with pytest.raises(ValueError):
        GradientBoostedEnsemble(n_trees=0)
    with pytest.raises(ValueError):
        GradientBoostedEnsemble(learning_rate=0)


def test_accelerator_results_bit_identical_to_software():
    features, targets = make_dataset()
    ensemble = GradientBoostedEnsemble(n_trees=8).fit(features, targets)
    accel = GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=2)
    assert np.array_equal(accel.infer(features), ensemble.predict(features))
    assert accel.tuples_processed == len(features)


def test_engine_count_bounds():
    ensemble = GradientBoostedEnsemble(n_trees=2).fit(*make_dataset(50))
    with pytest.raises(ValueError):
        GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=3)
    with pytest.raises(ValueError):
        GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=0)


def test_figure9_values_match_paper():
    """Paper bars: 1-engine Harp 33, F1 24, VCU118 41, Enzian 48;
    2-engine doubles each."""
    ensemble = GradientBoostedEnsemble(n_trees=2).fit(*make_dataset(50))
    table = figure9_throughputs(ensemble)
    expected = {
        "Harp-v2": {1: 33, 2: 66},
        "Amazon-F1": {1: 24, 2: 48},
        "VCU118": {1: 41, 2: 81},
        "Enzian": {1: 48, 2: 96},
    }
    for platform, engines_map in expected.items():
        for engines, mtuples in engines_map.items():
            measured = table[platform][engines]
            assert measured == pytest.approx(mtuples, rel=0.06), (
                platform, engines, measured,
            )


def test_enzian_wins_figure9():
    ensemble = GradientBoostedEnsemble(n_trees=2).fit(*make_dataset(50))
    table = figure9_throughputs(ensemble)
    for engines in (1, 2):
        others = [table[p][engines] for p in table if p != "Enzian"]
        assert table["Enzian"][engines] > max(others)


def test_workload_is_compute_bound():
    """§5.3: 'uses no more than 4 GB/s of bandwidth'."""
    ensemble = GradientBoostedEnsemble(n_trees=2).fit(*make_dataset(50))
    for platform in FIGURE9_PLATFORMS.values():
        accel = GbdtAccelerator(ensemble, platform, engines=2)
        assert accel.host_bandwidth_used_gbps() <= 50.0  # bits/s: 6.1 GB/s max
        assert accel.compute_tuples_per_s < accel.bandwidth_tuples_per_s


def test_batch_time_scales():
    ensemble = GradientBoostedEnsemble(n_trees=2).fit(*make_dataset(50))
    accel = GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"])
    assert accel.batch_time_s(128 * 1024) == pytest.approx(
        2 * accel.batch_time_s(64 * 1024)
    )


def test_platform_validation():
    with pytest.raises(ValueError):
        EnginePlatform("bad", clock_mhz=0, max_engines=1, host_bandwidth_gbps=1)
