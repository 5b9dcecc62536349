"""The store's key index against the probe walk it replaced.

``HashTableStore`` finds a live key through a ``key -> slot`` map and
walks the probe sequence only on a miss; its scan visits only the slots
whose state byte says full.  :class:`ProbeWalkStore` keeps the previous
implementation, where every operation walks the sequence from the key's
home slot and the scan decodes every slot.  Driven by the same random
operations, both must return the same values and raise the same errors,
and leave the same arena bytes, ``items``, ``stats`` (probe counts
included) and scan.
"""

from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.apps.kvs import _EMPTY, _FULL, _TOMBSTONE, HashTableStore, KvError


class ProbeWalkStore(HashTableStore):
    """The store without its index: every operation probes from home,
    and the scan decodes every slot before it looks at the state."""

    def scan(self):
        for index in range(self.n_slots):
            state, key, value = self._slot(index)
            if state == _FULL:
                yield key, value

    def put(self, key: bytes, value: bytes) -> None:
        self._validate(key, value)
        self.stats["puts"] += 1
        first_tombstone = None
        index = self._hash(key)
        for _ in range(self.n_slots):
            self.stats["probes"] += 1
            state, slot_key, _ = self._slot(index)
            if state == _FULL and slot_key == key:
                self._write_slot(index, _FULL, key, value)
                return
            if state == _TOMBSTONE and first_tombstone is None:
                first_tombstone = index
            if state == _EMPTY:
                target = first_tombstone if first_tombstone is not None else index
                self._write_slot(target, _FULL, key, value)
                self.items += 1
                return
            index = (index + 1) % self.n_slots
        if first_tombstone is not None:
            self._write_slot(first_tombstone, _FULL, key, value)
            self.items += 1
            return
        raise KvError("table full")

    def get(self, key: bytes) -> Optional[bytes]:
        self._validate(key)
        self.stats["gets"] += 1
        index = self._hash(key)
        for _ in range(self.n_slots):
            self.stats["probes"] += 1
            state, slot_key, value = self._slot(index)
            if state == _EMPTY:
                return None
            if state == _FULL and slot_key == key:
                return value
            index = (index + 1) % self.n_slots
        return None

    def delete(self, key: bytes) -> bool:
        self._validate(key)
        self.stats["deletes"] += 1
        index = self._hash(key)
        for _ in range(self.n_slots):
            state, slot_key, _ = self._slot(index)
            if state == _EMPTY:
                return False
            if state == _FULL and slot_key == key:
                self._write_slot(index, _TOMBSTONE, b"", b"")
                self.items -= 1
                return True
            index = (index + 1) % self.n_slots
        return False


KEYS = st.sampled_from([f"key-{i}".encode() for i in range(14)])
#: Weighted towards puts and deletes, so probe chains grow, tombstones
#: pile up and new keys must walk past them before a clear resets all.
OP_NAMES = ["put"] * 4 + ["delete"] * 3 + ["get"] * 2 + ["add", "clear", "restore"]
OPS = st.lists(
    st.tuples(st.sampled_from(OP_NAMES), KEYS, st.binary(max_size=12), st.integers(-5, 5)),
    max_size=150,
)


def _apply(store: HashTableStore, op: tuple):
    """Run one operation; returns (store, outcome) -- restore swaps in a
    fresh store rebuilt from a snapshot."""
    name, key, value, delta = op
    if name == "restore":
        fresh = type(store)(store.n_slots)
        fresh.restore_state(store.snapshot_state())
        return fresh, None
    try:
        if name == "put":
            return store, store.put(key, value)
        if name == "get":
            return store, store.get(key)
        if name == "delete":
            return store, store.delete(key)
        if name == "add":
            return store, store.atomic_add(key, delta)
        return store, store.clear()
    except (KvError, OverflowError) as exc:  # atomic_add on a wide value overflows
        return store, (type(exc).__name__, str(exc))


def _state(store: HashTableStore) -> tuple:
    return bytes(store.arena), store.items, dict(store.stats), list(store.scan())


@settings(max_examples=300, deadline=None)
@given(n_slots=st.sampled_from([8, 9, 16]), ops=OPS)
def test_index_matches_the_probe_walk(n_slots, ops):
    # 14 keys over 8-16 slots: tables fill up, tombstones pile up and get
    # reused, and misses walk long probe sequences.
    indexed, walked = HashTableStore(n_slots), ProbeWalkStore(n_slots)
    for op in ops:
        indexed, got = _apply(indexed, op)
        walked, want = _apply(walked, op)
        assert got == want, op
        assert _state(indexed) == _state(walked), op


def test_put_takes_the_first_tombstone_on_its_probe_path():
    # key-3, key-8 and key-13 share home slot 6 of 8.
    keys = [b"key-3", b"key-8", b"key-13"]
    indexed, walked = HashTableStore(8), ProbeWalkStore(8)
    for store in (indexed, walked):
        store.put(keys[0], b"a")
        store.put(keys[1], b"b")
        store.delete(keys[0])
        store.put(keys[2], b"c")
        assert store._slot(6) == (_FULL, keys[2], b"c")
    assert _state(indexed) == _state(walked)


def test_full_table_of_tombstones_reuses_the_first_one():
    """No empty slot left: a miss walks the whole table, and a put takes
    the first tombstone after the key's home."""
    indexed, walked = HashTableStore(8), ProbeWalkStore(8)
    keys = [f"fill-{i}".encode() for i in range(8)]
    for store in (indexed, walked):
        for key in keys:
            store.put(key, b"x")
        for key in keys[:3]:
            store.delete(key)
        assert store.get(b"absent") is None
        store.put(b"new", b"y")
    assert _state(indexed) == _state(walked)
    assert indexed.stats["probes"] > 8 * 2  # two full-table walks counted
