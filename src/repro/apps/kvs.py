"""A hardware-accelerated key-value store (§5.2: "how Enzian can be
used to implement, e.g., hardware-accelerated key-value stores [40]").

KV-Direct-style: the FPGA terminates the network protocol and executes
GET/PUT/DELETE/ATOMIC-ADD directly against DRAM, bypassing the CPU.
Functional side: a real open-addressing hash table of fixed-size slots
(linear probing, tombstones) whose DRAM image, the byte arena, is
rendered on demand and is read-only.  Performance side: a
request-throughput model contrasting the FPGA path (pipeline bound)
with a CPU software server (per-request kernel + stack cost).
"""

from __future__ import annotations

import struct
from typing import Optional

import zlib

from ..params import KvsPerformanceParams

MAX_KEY_BYTES = 32
MAX_VALUE_BYTES = 120
#: One slot of the arena: state, key length, value length, then the key
#: and the value, each zero-padded to its maximum.
_SLOT = struct.Struct(f"<BBH{MAX_KEY_BYTES}s{MAX_VALUE_BYTES}s")
SLOT_BYTES = _SLOT.size

_EMPTY, _FULL, _TOMBSTONE = 0, 1, 2


def _render(states: bytearray, entries: dict[int, tuple[bytes, bytes]]) -> bytearray:
    """The arena of a store with these slot states and full slots: slot
    ``i`` is bytes ``[i * SLOT_BYTES, (i + 1) * SLOT_BYTES)``.  An empty
    slot is all zero, a tombstone is zero but for its state byte.

    One zeroed buffer takes the state bytes in one extended-slice write
    and each full slot in one pack; it is returned as it is, because a
    copy to ``bytes`` would write a second arena-sized buffer."""
    arena = bytearray(len(states) * SLOT_BYTES)
    arena[::SLOT_BYTES] = states
    for index, (key, value) in entries.items():
        _SLOT.pack_into(arena, index * SLOT_BYTES, _FULL, len(key), len(value), key, value)
    return arena


class KvError(RuntimeError):
    """Capacity exhausted or malformed keys/values."""


class HashTableStore:
    """Open-addressing hash table of fixed-size slots (FPGA DRAM).

    The store keeps one state byte per slot, the ``(key, value)`` of
    every full slot, and a ``key -> slot`` index of the live entries.
    The slot layout in DRAM, :attr:`arena`, is rendered from these when
    asked for (checkpoints carry it byte-exact); it is read-only."""

    def __init__(self, n_slots: int = 4096):
        if n_slots < 8:
            raise ValueError("need at least 8 slots")
        self.n_slots = n_slots
        self.items = 0
        self.stats = {"probes": 0, "gets": 0, "puts": 0, "deletes": 0}
        #: One state byte per slot (empty, full or tombstone): a probe
        #: walk reads nothing else.
        self._states = bytearray(n_slots)
        #: slot -> (key, value) of every full slot.
        self._entries: dict[int, tuple[bytes, bytes]] = {}
        #: key -> slot of every live entry: a hit reads this and
        #: ``_entries``, and no slot on its probe path.
        self._index: dict[bytes, int] = {}

    def _hash(self, key: bytes) -> int:
        return zlib.crc32(key) % self.n_slots

    def _slot(self, index: int) -> tuple[int, bytes, bytes]:
        """Slot ``index`` as ``(state, key, value)``; a slot that is not
        full reads ``b""`` for both."""
        state = self._states[index]
        if state == _FULL:
            return (state, *self._entries[index])
        return state, b"", b""

    def _write_slot(self, index: int, state: int, key: bytes, value: bytes) -> None:
        """Set slot ``index``; only a full slot keeps a key and value."""
        self._states[index] = state
        if state == _FULL:
            self._entries[index] = (bytes(key), bytes(value))
        else:
            self._entries.pop(index, None)

    def _validate(self, key: bytes, value: Optional[bytes] = None) -> bytes:
        """Check sizes; return the key as ``bytes`` (the index's key type)."""
        if not key or len(key) > MAX_KEY_BYTES:
            raise KvError(f"key must be 1..{MAX_KEY_BYTES} bytes")
        if value is not None and len(value) > MAX_VALUE_BYTES:
            raise KvError(f"value must be <= {MAX_VALUE_BYTES} bytes")
        return bytes(key)

    # -- operations -------------------------------------------------------------
    #
    # ``stats["probes"]`` counts what the linear probe walk would: a hit
    # costs ``(slot - crc32(key)) % n + 1``, as no slot between a key's
    # home and its live slot is ever empty (only clear() empties slots).
    # A miss walks the slot state bytes to the first empty slot.

    def _miss(self, key: bytes) -> Optional[int]:
        """Count a missing key's probe walk; return the slot a put would
        take (the first tombstone, else the empty slot ending the walk),
        or None when the table is full."""
        states, n = self._states, self.n_slots
        index = self._hash(key)
        first_tombstone = None
        for probes in range(1, n + 1):
            state = states[index]
            if state == _EMPTY:
                self.stats["probes"] += probes
                return index if first_tombstone is None else first_tombstone
            if state == _TOMBSTONE and first_tombstone is None:
                first_tombstone = index
            index = (index + 1) % n
        self.stats["probes"] += n
        return first_tombstone

    def put(self, key: bytes, value: bytes) -> None:
        key = self._validate(key, value)
        self.stats["puts"] += 1
        slot = self._index.get(key)
        if slot is not None:
            self.stats["probes"] += (slot - zlib.crc32(key)) % self.n_slots + 1
            self._write_slot(slot, _FULL, key, value)
            return
        slot = self._miss(key)
        if slot is None:
            raise KvError("table full")
        self._write_slot(slot, _FULL, key, value)
        self._index[key] = slot
        self.items += 1

    def get(self, key: bytes) -> Optional[bytes]:
        key = self._validate(key)
        self.stats["gets"] += 1
        slot = self._index.get(key)
        if slot is None:
            self._miss(key)
            return None
        self.stats["probes"] += (slot - zlib.crc32(key)) % self.n_slots + 1
        return self._entries[slot][1]

    def delete(self, key: bytes) -> bool:
        key = self._validate(key)
        self.stats["deletes"] += 1
        slot = self._index.pop(key, None)
        if slot is None:
            return False
        self._write_slot(slot, _TOMBSTONE, b"", b"")
        self.items -= 1
        return True

    def atomic_add(self, key: bytes, delta: int) -> int:
        """Fetch-and-add on an 8-byte counter value (KV-Direct's
        signature in-memory operation)."""
        current = self.get(key)
        value = int.from_bytes(current, "little", signed=True) if current else 0
        value += delta
        self.put(key, value.to_bytes(8, "little", signed=True))
        return value

    @property
    def load_factor(self) -> float:
        return self.items / self.n_slots

    def scan(self):
        """Yield every stored ``(key, value)`` pair in slot order.

        The control-plane full-table walk: re-replication, rejoin
        handoff and anti-entropy iterate a shard's contents without
        knowing its keys.  It visits the full slots only.
        """
        entries = self._entries
        for index in sorted(entries):
            yield entries[index]

    def clear(self) -> None:
        """Empty every slot (a rejoining board comes back empty)."""
        self._states = bytearray(self.n_slots)
        self._entries = {}
        self._index = {}
        self.items = 0

    @property
    def arena(self) -> bytearray:
        """The slots in their DRAM layout, rendered afresh from the state
        bytes and the full slots.  Read-only: it cannot be assigned, and
        the store never reads a rendering back, so writing to one
        changes nothing."""
        return _render(self._states, self._entries)

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # The arena is captured byte-exact (slot layout depends on the full
    # put/delete history through probing and tombstones, so replaying
    # operations would not reproduce it).  A restore parses it back and
    # accepts only what ``arena`` itself would render.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        return {
            "n_slots": self.n_slots,
            "arena": self.arena,
            "items": self.items,
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        if state["n_slots"] != self.n_slots:
            raise KvError(
                f"snapshot has {state['n_slots']} slots, store has {self.n_slots}"
            )
        arena = state["arena"]
        if len(arena) != self.n_slots * SLOT_BYTES:
            raise KvError(
                f"arena has {len(arena)} bytes, {self.n_slots} slots need "
                f"{self.n_slots * SLOT_BYTES}"
            )
        states = bytearray(arena[::SLOT_BYTES])
        if states.translate(None, bytes((_EMPTY, _FULL, _TOMBSTONE))):
            raise KvError("arena has a slot state other than empty, full or tombstone")
        entries = {}
        index = states.find(_FULL)
        while index != -1:
            _, key_len, value_len, key, value = _SLOT.unpack_from(arena, index * SLOT_BYTES)
            if not 0 < key_len <= MAX_KEY_BYTES or value_len > MAX_VALUE_BYTES:
                raise KvError(f"arena slot {index} has key/value lengths {key_len}/{value_len}")
            entries[index] = (key[:key_len], value[:value_len])
            index = states.find(_FULL, index + 1)
        index_of = {key: slot for slot, (key, _) in entries.items()}
        if len(index_of) != len(entries) or state["items"] != len(entries):
            raise KvError(
                f"arena holds {len(entries)} entries under {len(index_of)} keys, "
                f"snapshot says {state['items']} items"
            )
        if _render(states, entries) != arena:
            raise KvError("arena is not a canonical rendering (non-zero padding)")
        self._states, self._entries, self._index = states, entries, index_of
        self.items = state["items"]
        self.stats.update(state["stats"])


def fpga_requests_per_s(params: KvsPerformanceParams | None = None) -> float:
    p = params or KvsPerformanceParams()
    pipeline = p.fpga_clock_mhz * 1e6 / p.fpga_cycles_per_request
    wire = p.link_gbps * 1e9 / 8 / p.request_bytes
    return min(pipeline, wire)


def cpu_requests_per_s(params: KvsPerformanceParams | None = None) -> float:
    p = params or KvsPerformanceParams()
    cpu = p.cpu_cores * 1e9 / p.cpu_ns_per_request
    wire = p.link_gbps * 1e9 / 8 / p.request_bytes
    return min(cpu, wire)
