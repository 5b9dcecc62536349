"""Pin the kernel event schedule of the KVS request path.

A hot-path change to the network, the KVS client or the shard store may
remove work inside a callback, never a ``call_at`` or its moment.  These
tests hold that rule to account: a :class:`Kernel` subclass records the
``when`` of every ``call_at``, in order, while two scripted
``rack_quorum`` scenarios run without any traffic RNG.  The recorded
times, the final ``seq`` and the final ``now`` must match a golden file.
Callback names are not recorded: they may change, the schedule may not.

To regenerate after an intentional schedule change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/fleet/test_event_schedule.py
"""

import json
import os
import pathlib

import pytest

from repro.config import preset
from repro.fleet import FleetKvsError, Rack
from repro.sim import Kernel, Timeout

pytestmark = pytest.mark.fleet

GOLDEN = pathlib.Path(__file__).parent / "data" / "event_schedule.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")


class RecordingKernel(Kernel):
    """A kernel that logs the time of every scheduled callback."""

    def __init__(self, seed: int):
        super().__init__(seed=seed)
        self.whens = []

    def call_at(self, when, callback, value=None):
        self.whens.append(when)
        super().call_at(when, callback, value)


def _mix(client, worker: int, ops: int):
    """A put/get/delete mix over a small key set; failures are logged,
    not raised, so minority-side keys exercise the retry path."""
    log = []
    for i in range(ops):
        key = f"w{worker}-k{i % 7}".encode()
        try:
            if i % 3 == 0:
                yield from client.put(key, f"v{worker}.{i}".encode())
                log.append(("put", key))
            elif i % 3 == 1:
                log.append(("get", key, (yield from client.get(key))))
            else:
                log.append(("delete", key, (yield from client.delete(key))))
        except FleetKvsError:
            log.append(("error", key))
        yield Timeout(1_500.0 * (worker + 1))
    return log


def _run(scenario: str):
    fleet = preset("rack_quorum").fleet
    kernel = RecordingKernel(seed=fleet.seed)
    rack = Rack(fleet, kernel=kernel)
    client = rack.client()
    workers = [kernel.spawn(_mix(client, w, 24), name=f"mix{w}") for w in range(3)]

    if scenario == "faults":
        def chaos():
            # A 4-vs-2 split: the majority is fenced to a new epoch, so
            # in-flight writes fail fast on stale_epoch, cut-off replicas
            # get hints, and minority-placed keys time out.
            yield Timeout(20_000.0)
            rack.start_partition([MAJ, MIN], until_ns=kernel.now + 150_000.0)
            yield Timeout(60_000.0)
            rack.kill("enzian1")

        kernel.spawn(chaos(), name="chaos")

    kernel.run()
    assert all(not w.alive for w in workers)
    return kernel, client, [w.result for w in workers]


def _schedule(scenario: str) -> dict:
    kernel, _, _ = _run(scenario)
    state = kernel.snapshot_state()
    return {"whens": kernel.whens, "seq": state["seq"], "now": state["now"]}


def test_fault_scenario_exercises_the_failure_paths():
    """The fault scenario is only a pin if it reaches every failure path."""
    kernel, client, logs = _run("faults")
    stats = client.stats
    assert stats["timeouts"] > 0
    assert stats["rejections"] > 0
    assert stats["hints_sent"] > 0
    assert any(entry[0] == "error" for log in logs for entry in log)
    assert any(entry[0] == "put" for log in logs for entry in log)


@pytest.mark.parametrize("scenario", ["mix", "faults"])
def test_event_schedule_matches_golden(scenario):
    got = _schedule(scenario)
    if REGEN:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[scenario] = got
        GOLDEN.write_text(json.dumps(golden, sort_keys=True) + "\n")
    assert GOLDEN.exists(), "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    want = json.loads(GOLDEN.read_text())[scenario]
    assert got["seq"] == want["seq"]
    assert got["now"] == want["now"]
    assert len(got["whens"]) == len(want["whens"])
    for index, (a, b) in enumerate(zip(got["whens"], want["whens"])):
        assert a == b, f"call_at #{index}: when {a!r} != golden {b!r}"
