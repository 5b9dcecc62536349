"""Supervised boot + workload on the degraded and 4-lane presets.

The §4.4 bring-up configurations must come up clean *under the health
supervisor*: full boot, a GBDT AFU workload, a telemetry sweep beating
its heartbeat -- and every supervised subsystem ends HEALTHY with no
stall declared.
"""

import numpy as np
import pytest

from repro.bmc.telemetry import Phase
from repro.config import preset
from repro.platform import EnzianMachine

SUPERVISED_PRESETS = ("degraded", "bringup_4lane")


def _supervised_machine(name):
    config = preset(name).with_overrides({"health.enabled": True})
    return EnzianMachine(config)


@pytest.mark.parametrize("name", SUPERVISED_PRESETS)
def test_preset_boots_to_linux_under_supervision(name):
    machine = _supervised_machine(name)
    assert machine.supervisor is not None
    machine.power_on()
    assert machine.running
    assert machine.boot.timeline.names()[-1] == "linux"
    states = machine.supervisor.states()
    assert states["power"] == "healthy"
    assert states["boot"] == "healthy"
    assert machine.supervisor.watchdog.all_quiet
    assert not machine.supervisor.wedged


@pytest.mark.parametrize("name", SUPERVISED_PRESETS)
def test_preset_runs_gbdt_workload_under_supervision(name):
    from repro.apps.gbdt import FIGURE9_PLATFORMS, GbdtAccelerator
    from repro.apps.gbdt.model import GradientBoostedEnsemble

    machine = _supervised_machine(name)
    machine.power_on()

    rng = np.random.default_rng(0)
    features = rng.uniform(-1, 1, (200, 4))
    targets = features[:, 0] - features[:, 1]
    ensemble = GradientBoostedEnsemble(n_trees=4).fit(features, targets)
    accel = GbdtAccelerator(ensemble, FIGURE9_PLATFORMS["Enzian"], engines=1)
    assert machine.shell.load_afu(0, accel) > 0
    assert np.array_equal(accel.infer(features), ensemble.predict(features))

    # A telemetry sweep under the supervisor's heartbeat: the sweep
    # beats as it samples, so the board watchdog stays quiet.
    telemetry = machine.telemetry()
    telemetry.run_phases([Phase("supervised-sample", duration_s=0.5)])
    assert (
        machine.supervisor.watchdog.check_board(machine.power.clock.now_s)
        == []
    )
    report = machine.supervisor.report()
    assert not report["wedged"]
    assert report["stalls"] == []
    assert report["states"]["power"] == "healthy"


def test_preset_boot_is_identical_with_and_without_supervision():
    """On a clean boot the supervisor only observes: same milestones,
    same board-clock timeline as the unsupervised machine."""
    plain = EnzianMachine(preset("degraded"))
    plain.power_on()
    supervised = _supervised_machine("degraded")
    supervised.power_on()
    assert (
        supervised.boot.timeline.names() == plain.boot.timeline.names()
    )
    assert supervised.power.clock.now_s == plain.power.clock.now_s
    assert not supervised.power.throttled
