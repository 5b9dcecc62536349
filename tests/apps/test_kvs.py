"""Tests for the hardware-accelerated key-value store."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kvs import (
    SLOT_BYTES,
    HashTableStore,
    KvError,
    KvsPerformanceParams,
    cpu_requests_per_s,
    fpga_requests_per_s,
)


def test_put_get_round_trip():
    store = HashTableStore()
    store.put(b"key", b"value")
    assert store.get(b"key") == b"value"
    assert store.get(b"missing") is None


def test_overwrite_updates_in_place():
    store = HashTableStore()
    store.put(b"k", b"v1")
    store.put(b"k", b"v2")
    assert store.get(b"k") == b"v2"
    assert store.items == 1


def test_delete_and_tombstone_reuse():
    store = HashTableStore(n_slots=8)
    store.put(b"a", b"1")
    assert store.delete(b"a")
    assert not store.delete(b"a")
    assert store.get(b"a") is None
    store.put(b"a", b"2")  # reuses the tombstone
    assert store.get(b"a") == b"2"
    assert store.items == 1


def test_probe_past_tombstone_finds_key():
    """Deleting one key must not hide colliding keys behind it."""
    store = HashTableStore(n_slots=8)
    # Force collisions by filling enough of a small table.
    keys = [f"k{i}".encode() for i in range(6)]
    for key in keys:
        store.put(key, key)
    store.delete(keys[0])
    for key in keys[1:]:
        assert store.get(key) == key


def test_table_full():
    store = HashTableStore(n_slots=8)
    for i in range(8):
        store.put(f"key{i}".encode(), b"x")
    with pytest.raises(KvError):
        store.put(b"overflow", b"x")


def test_key_value_size_limits():
    store = HashTableStore()
    with pytest.raises(KvError):
        store.put(b"", b"x")
    with pytest.raises(KvError):
        store.put(b"k" * 33, b"x")
    with pytest.raises(KvError):
        store.put(b"k", b"v" * 121)
    store.put(b"k" * 32, b"v" * 120)  # exactly at the limits


def test_atomic_add():
    store = HashTableStore()
    assert store.atomic_add(b"ctr", 5) == 5
    assert store.atomic_add(b"ctr", -2) == 3
    assert store.atomic_add(b"ctr", 0) == 3


def test_load_factor_and_stats():
    store = HashTableStore(n_slots=16)
    for i in range(4):
        store.put(f"k{i}".encode(), b"v")
    assert store.load_factor == 0.25
    store.get(b"k0")
    assert store.stats["gets"] == 1
    assert store.stats["puts"] == 4


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.binary(min_size=1, max_size=8),
            st.binary(max_size=16),
        ),
        max_size=60,
    )
)
def test_matches_dict_reference(ops):
    store = HashTableStore(n_slots=256)
    reference = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            reference[key] = value
        elif op == "get":
            assert store.get(key) == reference.get(key)
        else:
            assert store.delete(key) == (reference.pop(key, None) is not None)
    for key, value in reference.items():
        assert store.get(key) == value


def _allocated(build):
    """Bytes that ``build()`` leaves allocated, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_fresh_store_holds_no_arena():
    # The 4,096-slot arena alone is 624 KiB; the store keeps one state
    # byte per slot and renders the arena only when asked.
    allocated, store = _allocated(lambda: HashTableStore(4096))
    assert allocated < 16 * 1024
    assert len(store.arena) == 4096 * SLOT_BYTES


def test_puts_grow_the_store_by_its_live_entries():
    store = HashTableStore(4096)
    # Keys and values are built first: the store keeps the caller's
    # objects, so only its own slot bookkeeping is measured.
    pairs = [(b"key%05d" % i, bytes([i % 251]) * 64) for i in range(1024)]

    def fill():
        for key, value in pairs:
            store.put(key, value)

    allocated, _ = _allocated(fill)
    assert allocated < 256 * 1024
    assert store.items == 1024


def test_arena_is_a_read_only_rendering():
    store = HashTableStore(8)
    store.put(b"k", b"v")
    with pytest.raises(AttributeError):
        store.arena = bytes(8 * SLOT_BYTES)
    rendered = store.arena
    rendered[:] = bytes(len(rendered))  # a rendering is the caller's copy
    assert store.get(b"k") == b"v"
    assert store.arena != rendered


def _snapshot_with_slots():
    """A snapshot of an 8-slot store, with the offsets of one full slot
    (key b"key", value b"value") and of one tombstone and one empty slot."""
    store = HashTableStore(8)
    store.put(b"key", b"value")
    store.put(b"gone", b"x")
    store.delete(b"gone")
    state = store.snapshot_state()
    states = state["arena"][::SLOT_BYTES]
    full, tombstone, empty = (states.index(s) * SLOT_BYTES for s in (1, 2, 0))
    return state, full, tombstone, empty


def _corrupt(arena: bytes, offset: int, data: bytes) -> bytes:
    return arena[:offset] + data + arena[offset + len(data):]


CORRUPTIONS = {
    "arena one byte short": lambda a, full, tomb, empty: a[:-1],
    "arena one byte long": lambda a, full, tomb, empty: a + b"\0",
    "key length 33": lambda a, full, tomb, empty: _corrupt(a, full + 1, bytes([33])),
    "key length 0": lambda a, full, tomb, empty: _corrupt(a, full + 1, bytes([0])),
    "value length 121": lambda a, full, tomb, empty: _corrupt(a, full + 2, struct.pack("<H", 121)),
    "state byte 3": lambda a, full, tomb, empty: _corrupt(a, empty, bytes([3])),
    "state byte 255": lambda a, full, tomb, empty: _corrupt(a, tomb, bytes([255])),
    "key padding": lambda a, full, tomb, empty: _corrupt(a, full + 4 + 3, b"k"),
    "value padding": lambda a, full, tomb, empty: _corrupt(a, full + 36 + 5, b"v"),
    "tombstone body": lambda a, full, tomb, empty: _corrupt(a, tomb + 1, bytes([4])),
    "empty slot body": lambda a, full, tomb, empty: _corrupt(a, empty + SLOT_BYTES - 1, b"z"),
    "duplicate key": lambda a, full, tomb, empty: _corrupt(a, empty, a[full : full + SLOT_BYTES]),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_restore_rejects_a_non_canonical_arena(name):
    state, full, tombstone, empty = _snapshot_with_slots()
    arena = CORRUPTIONS[name](state["arena"], full, tombstone, empty)
    store = HashTableStore(8)
    store.put(b"mine", b"kept")
    before = store.snapshot_state()
    with pytest.raises(KvError):
        store.restore_state({**state, "arena": arena})
    # A rejected snapshot leaves the store as it was.
    assert store.snapshot_state() == before
    assert store.get(b"mine") == b"kept"


def test_restore_rejects_an_item_count_the_arena_does_not_hold():
    state, *_ = _snapshot_with_slots()
    with pytest.raises(KvError, match="items"):
        HashTableStore(8).restore_state({**state, "items": state["items"] + 1})


def test_restore_round_trips_the_canonical_arena():
    state, *_ = _snapshot_with_slots()
    store = HashTableStore(8)
    store.restore_state(state)
    assert store.arena == state["arena"]
    assert store.get(b"key") == b"value" and store.get(b"gone") is None


def test_fpga_path_beats_cpu_path():
    """KV-Direct's claim: the NIC-side store outruns the software server."""
    fpga = fpga_requests_per_s()
    cpu = cpu_requests_per_s()
    assert fpga > cpu
    # Both bounded by the wire for 64 B requests at 100G.
    wire = 100e9 / 8 / 64
    assert fpga <= wire
    assert fpga > 20e6  # tens of Mops, the KV-Direct regime


def test_performance_scales_with_clock():
    slow = fpga_requests_per_s(KvsPerformanceParams(fpga_clock_mhz=150.0))
    fast = fpga_requests_per_s(KvsPerformanceParams(fpga_clock_mhz=300.0))
    assert fast == pytest.approx(2 * slow)
