"""Pin what anti-entropy passes do to a diverged rack.

A 6-board, rf=3 rack with hinted handoff off is driven into the states
a pass repairs: quorum puts, deletes that leave tombstones, a 4-vs-2
split whose overwrites leave the minority stale, and version-less keys
written straight into one store (some with a conflicting copy on a
second store).  Four ``run_pass()`` calls follow: a pass, a kill and a
pass, a rejoin (which runs ``re_replicate``) and a pass, and one more
pass.  After each pass the test records the scheduler's stats and a
sha256 over every machine's arena bytes and sorted versions; at the end
it records the sha256 of the obs snapshot.  All must match a golden
file, at two seeds.

To regenerate after an intentional change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/fleet/test_antientropy_golden.py
"""

import hashlib
import json
import os
import pathlib
import random

import pytest

from repro.fleet import (
    AntiEntropyConfig,
    AntiEntropyScheduler,
    FleetConfig,
    FleetKvsError,
    Rack,
)
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

pytestmark = pytest.mark.fleet

GOLDEN = pathlib.Path(__file__).parent / "data" / "antientropy_passes.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
SEEDS = (5, 990951)

MAJ = ("enzian0", "enzian1", "enzian2", "enzian3")
MIN = ("enzian4", "enzian5")


def _state_digest(rack) -> str:
    """sha256 over every machine's arena bytes and sorted versions."""
    digest = hashlib.sha256()
    for name in sorted(rack.machines):
        machine = rack.machines[name]
        digest.update(name.encode() + b"\0" + bytes(machine.store.arena))
        for key, (epoch, seq) in sorted(machine.server.versions.items()):
            digest.update(b"%s=%d.%d;" % (key, epoch, seq))
    return digest.hexdigest()


def _run(rack, generator):
    rack.kernel.spawn(generator, name="work")
    rack.kernel.run()


def _scenario(seed: int):
    rng = random.Random(seed)
    obs = MetricsRegistry()
    fleet = FleetConfig(
        machines=6,
        replication_factor=3,
        hinted_handoff=False,
        seed=seed,
    )
    rack = Rack(fleet, obs=obs)
    client = rack.client()
    keys = [b"g%03d" % i for i in range(80)]

    def load():
        for key in keys:
            yield from client.put(key, b"v1-%d" % rng.randrange(10_000))
        for key in rng.sample(keys, 12):
            yield from client.delete(key)

    _run(rack, load())

    def overwrite():
        # Keys with two replicas on the minority side time out; the
        # rest commit on the majority and leave the minority stale.
        for key in rng.sample(keys, 36):
            try:
                if rng.random() < 0.25:
                    yield from client.delete(key)
                else:
                    yield from client.put(key, b"v2-%d" % rng.randrange(10_000))
            except FleetKvsError:
                pass

    rack.start_partition([MAJ, MIN], until_ns=rack.kernel.now + 2_000_000.0)
    _run(rack, overwrite())
    rack.kernel.call_at(rack.kernel.now + 2_500_000.0, lambda _value: None)
    rack.kernel.run()
    rack.maybe_heal()
    assert rack.active_partition is None

    names = sorted(rack.machines)
    for i in range(10):
        # Version-less keys, outside the KVS protocol; every third one
        # gets a conflicting copy on a second store.
        key = b"raw%02d" % i
        first, second = rng.sample(names, 2)
        rack.machines[first].store.put(key, b"r-%d" % rng.randrange(10_000))
        if i % 3 == 0:
            rack.machines[second].store.put(key, b"q-%d" % rng.randrange(10_000))

    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(), obs=obs)
    passes = []

    def run_pass():
        repaired = scheduler.run_pass()
        passes.append(
            {
                "repaired": repaired,
                "stats": dict(scheduler.stats),
                "state": _state_digest(rack),
            }
        )

    victim = rng.choice(names)
    run_pass()
    rack.kill(victim)
    run_pass()
    rack.rejoin(victim)
    run_pass()
    run_pass()
    obs_digest = hashlib.sha256(snapshot_jsonl(obs).encode()).hexdigest()
    return {"victim": victim, "passes": passes, "obs": obs_digest}


@pytest.mark.parametrize("seed", SEEDS)
def test_antientropy_passes_match_golden(seed):
    got = _scenario(seed)
    # The scenario only pins the pass if every pass has work to do.
    stats = [entry["stats"] for entry in got["passes"]]
    assert all(entry["repaired"] > 0 for entry in got["passes"][:3])
    assert stats[-1]["ranges_diverged"] > stats[0]["ranges_diverged"]
    if REGEN:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[str(seed)] = got
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    assert GOLDEN.exists(), "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    want = json.loads(GOLDEN.read_text())[str(seed)]
    assert got["victim"] == want["victim"]
    for index, (a, b) in enumerate(zip(got["passes"], want["passes"])):
        assert a == b, f"pass #{index} differs from the golden file"
    assert len(got["passes"]) == len(want["passes"])
    assert got["obs"] == want["obs"]
