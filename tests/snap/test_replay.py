"""Record-replay: one board from a rack run, re-executed in isolation.

The satellite-3 acceptance test: record an 8-board
``examples/rack_kvs.py`` run (the canonical failover scenario), replay
single boards from their message traces alone, and require the replayed
board to be bit-identical to its in-rack execution -- outbound frames,
store arena, server stats, and the board's observability series.
"""

import os
import sys
from dataclasses import replace

import pytest

from repro.config import FleetConfig, preset
from repro.fleet import Rack
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.snap import (
    FleetSoak,
    attach_taps,
    replay_board,
    trace_from_jsonl,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "examples"))

pytestmark = pytest.mark.snap


def _board_series(obs, name: str) -> list:
    return [
        line
        for line in snapshot_jsonl(obs).splitlines()
        if f'"machine": "{name}"' in line and "fleet_kvs_ops_total" in line
    ]


def test_rack_kvs_example_board_replays_bit_identically():
    from rack_kvs import run_rack

    result = run_rack(machines=8, seed=990951, record_taps=True)
    fleet, obs, traces = result["fleet"], result["obs"], result["traces"]

    # Replay every board that served traffic -- including the victim,
    # whose trace carries the out-of-band "down" control record.
    replayed = 0
    for name, records in traces.items():
        if not records:
            continue
        replay_obs = MetricsRegistry()
        board, outbound = replay_board(records, fleet, name, obs=replay_obs)

        original = [r for r in records if r["dir"] == "out"]
        assert outbound == original, f"{name}: outbound frames diverged"
        assert board["server"].stats == result["served"][name]
        assert _board_series(replay_obs, name) == _board_series(obs, name)
        replayed += 1
    assert replayed >= 2, "scenario should exercise several boards"

    # The victim's replay must reproduce the black-holed requests.
    victim = result["victim"]
    replay_obs = MetricsRegistry()
    board, _ = replay_board(traces[victim], fleet, victim, obs=replay_obs)
    assert not board["server"].alive


def test_trace_round_trips_through_jsonl():
    fleet = FleetConfig(machines=3, replication_factor=2, seed=4)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    taps = attach_taps(rack)
    clients = [rack.client("client0")]
    FleetSoak(rack, clients, ops_per_epoch=20).run(2)

    for name, tap in taps.items():
        text = tap.to_jsonl()
        rt_name, rt_records = trace_from_jsonl(text)
        assert rt_name == name
        assert rt_records == tap.records


def test_replay_reproduces_store_arena():
    fleet = FleetConfig(machines=3, replication_factor=2, seed=9)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    taps = attach_taps(rack)
    clients = [rack.client("client0")]
    FleetSoak(rack, clients, ops_per_epoch=25).run(2)

    for name, tap in taps.items():
        board, _ = replay_board(tap.records, fleet, name)
        assert bytes(board["store"].arena) == bytes(
            rack.machines[name].store.arena
        ), f"{name}: replayed arena diverged"
        assert board["store"].items == rack.machines[name].store.items


def test_recording_does_not_perturb_the_run():
    fleet = FleetConfig(machines=3, replication_factor=2, seed=6)

    def run(record):
        obs = MetricsRegistry()
        rack = Rack(fleet, obs=obs)
        if record:
            attach_taps(rack)
        clients = [rack.client("client0")]
        FleetSoak(rack, clients, ops_per_epoch=15).run(2)
        return snapshot_jsonl(obs)

    assert run(record=False) == run(record=True)


def test_quorum_rack_boards_replay_bit_identically():
    """Quorum traffic carries epochs, versions, replica lists and
    tombstones, and a kill fences the survivors to a new epoch: the
    trace must carry all of it, through a JSONL round-trip, for every
    board of a ``rack_quorum`` soak to replay bit-identically."""
    fleet = replace(preset("rack_quorum").fleet, seed=12)
    rack = Rack(fleet)
    taps = attach_taps(rack)
    soak = FleetSoak(rack, [rack.client("client0")], ops_per_epoch=24)
    soak.run(2)
    rack.kill("enzian2")
    soak.run(2)

    assert soak.errors == 0
    for name, tap in taps.items():
        _, records = trace_from_jsonl(tap.to_jsonl())
        board, outbound = replay_board(records, fleet, name)
        original = rack.machines[name]
        assert outbound == [r for r in records if r["dir"] == "out"], name
        assert board["server"].stats == original.server.stats, name
        assert board["server"].epoch == original.server.epoch, name
        assert board["server"].versions == original.server.versions, name
        assert bytes(board["store"].arena) == bytes(original.store.arena), name
