"""Accelerator service times against the app models they come from.

``recsys_service_ns`` and ``gbdt_service_ns`` must equal, bit for bit,
what the full recsys and GBDT accelerator models (numpy tables and a
trained-or-not ensemble) report for the Enzian configuration.
"""

import pytest

from repro.apps.gbdt.accel import FIGURE9_PLATFORMS, GbdtAccelerator
from repro.apps.gbdt.model import GradientBoostedEnsemble
from repro.apps.recsys import EmbeddingModel, RecsysAccelerator, enzian_fpga_placement
from repro.traffic.classes import GBDT_REQUEST_TUPLES, gbdt_service_ns, recsys_service_ns

pytestmark = pytest.mark.traffic


def test_recsys_service_time_equals_the_accelerator_model():
    model = EmbeddingModel(8, 64, 64, seed=0)
    accel = RecsysAccelerator(model, enzian_fpga_placement())
    assert recsys_service_ns() == 1e9 / accel.requests_per_s()
    assert recsys_service_ns() == 33.333333333333336


def test_gbdt_service_time_equals_the_accelerator_model():
    accel = GbdtAccelerator(GradientBoostedEnsemble(), FIGURE9_PLATFORMS["Enzian"], engines=2)
    expected = GBDT_REQUEST_TUPLES / accel.throughput_tuples_per_s * 1e9
    assert gbdt_service_ns() == expected
    assert gbdt_service_ns() == 333.33333333333337
