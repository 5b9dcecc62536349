"""Tests for double-buffered streaming inference."""

import numpy as np
import pytest

from repro.apps.gbdt import FIGURE9_PLATFORMS, GbdtAccelerator
from repro.apps.gbdt.model import GradientBoostedEnsemble
from repro.apps.gbdt.streaming import run_streaming_inference


def make_setup(n_tuples=4096):
    rng = np.random.default_rng(5)
    features = rng.uniform(-1, 1, (512, 4))
    targets = features[:, 0] + 0.5 * features[:, 1]
    ensemble = GradientBoostedEnsemble(n_trees=4).fit(features, targets)
    accel = GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=2)
    stream = rng.uniform(-1, 1, (n_tuples, 4))
    return ensemble, accel, stream


def test_streaming_results_match_software():
    ensemble, accel, stream = make_setup()
    result = run_streaming_inference(accel, stream, batch_tuples=512)
    assert np.array_equal(result.predictions, ensemble.predict(stream))
    assert result.batches == 8


def test_double_buffering_beats_serial():
    """§5.3: overlapping copy and compute hides latency."""
    _, accel, stream = make_setup()
    pipelined = run_streaming_inference(accel, stream, double_buffered=True)
    serial = run_streaming_inference(accel, stream, double_buffered=False)
    assert pipelined.total_ns < serial.total_ns
    # Pipelined total approaches max(copy, compute) per batch.
    per_batch = max(pipelined.copy_ns_per_batch, pipelined.compute_ns_per_batch)
    assert pipelined.total_ns < serial.total_ns * 0.85
    assert pipelined.total_ns >= pipelined.batches * per_batch * 0.95


def test_overlap_efficiency_metric():
    _, accel, stream = make_setup()
    pipelined = run_streaming_inference(accel, stream, double_buffered=True)
    serial = run_streaming_inference(accel, stream, double_buffered=False)
    assert pipelined.overlap_efficiency > 0.9
    assert serial.overlap_efficiency < 0.2


def test_partial_last_batch():
    ensemble, accel, stream = make_setup(n_tuples=1000)
    result = run_streaming_inference(accel, stream, batch_tuples=512)
    assert result.batches == 2
    assert len(result.predictions) == 1000
    assert np.array_equal(result.predictions, ensemble.predict(stream))


def test_bandwidth_limits_copy_time():
    _, accel, stream = make_setup()
    fast = run_streaming_inference(accel, stream, host_bandwidth_bytes_per_ns=20.0)
    slow = run_streaming_inference(accel, stream, host_bandwidth_bytes_per_ns=2.0)
    assert slow.copy_ns_per_batch == pytest.approx(10 * fast.copy_ns_per_batch)
    assert slow.total_ns > fast.total_ns


def test_validation():
    _, accel, stream = make_setup()
    with pytest.raises(ValueError):
        run_streaming_inference(accel, stream, batch_tuples=0)
    with pytest.raises(ValueError):
        run_streaming_inference(accel, np.empty((0, 4)))
