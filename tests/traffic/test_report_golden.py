"""Pin the traffic engine's report document.

``TrafficEngine.report()`` is the canonical output of every serving
scenario: the examples print it and the ledger hashes it.  This test
runs the ``rack_traffic`` preset, cut to a 1 ms arrival window, at two
seeds and compares each report with a golden file, so a change to the
serving path that moves any count, percentile or key shows up here as
a diff of the document itself.

To regenerate after an intentional output change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/traffic/test_report_golden.py
"""

import json
import os
import pathlib
from dataclasses import replace

import pytest

from repro.config import preset
from repro.fleet import Rack
from repro.obs import MetricsRegistry
from repro.traffic import TrafficEngine

pytestmark = pytest.mark.traffic

GOLDEN = pathlib.Path(__file__).parent / "data" / "report_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _report_text(seed: int) -> str:
    cfg = preset("rack_traffic")
    obs = MetricsRegistry()
    rack = Rack(replace(cfg.fleet, seed=seed), obs=obs)
    traffic = replace(cfg.traffic, duration_ns=1_000_000.0)
    report = TrafficEngine(rack, traffic, obs=obs).run()
    return json.dumps(report, sort_keys=True, indent=1)


@pytest.mark.parametrize("seed", [5, 990951])
def test_report_matches_golden(seed):
    got = _report_text(seed)
    if REGEN:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[str(seed)] = json.loads(got)
        GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    assert GOLDEN.exists(), "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    want = json.dumps(json.loads(GOLDEN.read_text())[str(seed)], sort_keys=True, indent=1)
    assert got.splitlines() == want.splitlines()
