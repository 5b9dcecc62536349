"""Pin the store's observable state, arena bytes included.

One fixed sequence of operations runs on an 8-, a 9- and a 4,096-slot
``HashTableStore``: 32-byte keys and 120-byte values, overwrites with
shorter values (their old tails must read as zero padding), deletes
that leave tombstones and puts that reuse them, a fill up to "table
full", a miss and a put on a full table, ``clear()``, and a snapshot
restored into a fresh store that then takes more operations.  After
each phase the test records the sha256 of ``bytes(store.arena)``,
``items``, ``stats``, the sha256 of ``list(store.scan())`` and of the
phase's return values; all must match a golden file.

To regenerate after an intentional change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/apps/test_kvs_arena.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.apps.kvs import MAX_KEY_BYTES, MAX_VALUE_BYTES, HashTableStore, KvError

GOLDEN = pathlib.Path(__file__).parent / "data" / "kvs_arena.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
SIZES = (8, 9, 4096)


def _key(name: str) -> bytes:
    """A full-width key: the name, padded with '#' to 32 bytes."""
    return name.encode().ljust(MAX_KEY_BYTES, b"#")


def _value(seed: int, size: int = MAX_VALUE_BYTES) -> bytes:
    """Bytes that vary with ``seed``, zero bytes included."""
    return bytes((seed * 37 + i * 11) % 256 for i in range(size))


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode() + b";")
    return digest.hexdigest()


def _record(phase: str, store: HashTableStore, outcomes: list) -> dict:
    return {
        "phase": phase,
        "arena_sha256": hashlib.sha256(bytes(store.arena)).hexdigest(),
        "items": store.items,
        "stats": dict(store.stats),
        "scan_sha256": _digest(store.scan()),
        "outcomes_sha256": _digest(outcomes),
    }


def _outcome(call, *args):
    try:
        return call(*args)
    except KvError as exc:
        return ("KvError", str(exc))


def _drive(n_slots: int) -> list:
    store = HashTableStore(n_slots)
    records = []
    live = [_key(f"live-{i}") for i in range(6)]

    outcomes = [_outcome(store.put, key, _value(i)) for i, key in enumerate(live)]
    outcomes.append(_outcome(store.put, _key("tail"), b"tail\0\0"))  # trailing zeros
    outcomes += [_outcome(store.get, key) for key in live]
    records.append(_record("load", store, outcomes))

    outcomes = [
        _outcome(store.put, live[0], _value(100, 5)),
        _outcome(store.put, live[2], b""),
        _outcome(store.put, live[4], _value(101, 119)),
    ]
    outcomes += [_outcome(store.get, key) for key in live]
    records.append(_record("overwrite", store, outcomes))

    outcomes = [
        _outcome(store.delete, live[1]),
        _outcome(store.delete, live[3]),
        _outcome(store.delete, live[3]),
        _outcome(store.delete, _key("never-stored")),
        _outcome(store.get, live[1]),
        _outcome(store.get, live[5]),
    ]
    records.append(_record("delete", store, outcomes))

    outcomes = [
        _outcome(store.put, live[3], _value(3, 7)),
        _outcome(store.put, _key("fresh-0"), _value(200)),
        _outcome(store.put, live[1], _value(1)),
        _outcome(store.atomic_add, b"ctr", 41),
        _outcome(store.atomic_add, b"ctr", 1),
    ]
    outcomes += [_outcome(store.get, key) for key in live]
    records.append(_record("reuse", store, outcomes))

    outcomes = []
    serial = 0
    while True:
        outcome = _outcome(store.put, _key(f"fill-{serial}"), _value(serial, serial % 121))
        outcomes.append(outcome)
        serial += 1
        if outcome is not None:
            break
    assert outcome == ("KvError", "table full") and store.items == n_slots
    outcomes.append(_outcome(store.get, _key("absent")))
    records.append(_record("fill", store, outcomes))

    outcomes = [
        _outcome(store.delete, _key("fill-0")),
        _outcome(store.delete, live[5]),
        _outcome(store.get, _key("absent")),
        _outcome(store.put, _key("after-full"), _value(300)),
        _outcome(store.put, _key("after-full-2"), _value(301, 1)),
        _outcome(store.put, _key("after-full-3"), _value(302)),
        _outcome(store.atomic_add, b"ctr", -50),
    ]
    records.append(_record("full-table", store, outcomes))

    store.clear()
    outcomes = [
        _outcome(store.get, live[0]),
        _outcome(store.put, live[0], _value(400)),
        _outcome(store.put, _key("post-clear"), _value(401, 60)),
        _outcome(store.put, live[2], _value(402)),
        _outcome(store.delete, _key("post-clear")),
    ]
    records.append(_record("clear", store, outcomes))

    restored = HashTableStore(n_slots)
    restored.restore_state(store.snapshot_state())
    assert bytes(restored.arena) == bytes(store.arena)
    records.append(_record("restore", restored, []))

    outcomes = [
        _outcome(restored.get, live[0]),
        _outcome(restored.get, _key("post-clear")),
        _outcome(restored.put, _key("post-clear"), _value(500, MAX_VALUE_BYTES)),
        _outcome(restored.put, live[2], _value(501, 3)),
        _outcome(restored.delete, live[0]),
        _outcome(restored.put, _key("post-restore"), _value(502)),
    ]
    outcomes += list(restored.scan())
    records.append(_record("after-restore", restored, outcomes))
    return records


def _observed() -> dict:
    return {str(n_slots): _drive(n_slots) for n_slots in SIZES}


def test_golden_is_current():
    if REGEN:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(_observed(), indent=1, sort_keys=True) + "\n")
    assert GOLDEN.exists(), "golden missing; run with REPRO_REGEN_GOLDEN=1"


@pytest.mark.parametrize("n_slots", SIZES)
def test_store_state_matches_golden(n_slots):
    golden = json.loads(GOLDEN.read_text())[str(n_slots)]
    observed = _drive(n_slots)
    assert [r["phase"] for r in observed] == [r["phase"] for r in golden]
    for got, want in zip(observed, golden):
        assert got == want, got["phase"]
