"""A hardware-accelerated key-value store (§5.2: "how Enzian can be
used to implement, e.g., hardware-accelerated key-value stores [40]").

KV-Direct-style: the FPGA terminates the network protocol and executes
GET/PUT/DELETE/ATOMIC-ADD directly against DRAM, bypassing the CPU.
Functional side: a real open-addressing hash table over a byte arena
(fixed-size slots, linear probing, tombstones).  Performance side: a
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
_SLOT_HEADER = struct.Struct("<BBH")  # state, key_len, value_len
SLOT_BYTES = _SLOT_HEADER.size + MAX_KEY_BYTES + MAX_VALUE_BYTES

_EMPTY, _FULL, _TOMBSTONE = 0, 1, 2


class KvError(RuntimeError):
    """Capacity exhausted or malformed keys/values."""


class HashTableStore:
    """Open-addressing hash table in a flat byte arena (FPGA DRAM),
    with a ``key -> slot`` index of the live entries next to it."""

    def __init__(self, n_slots: int = 4096):
        if n_slots < 8:
            raise ValueError("need at least 8 slots")
        self.n_slots = n_slots
        self.arena = bytearray(n_slots * SLOT_BYTES)
        self.items = 0
        self.stats = {"probes": 0, "gets": 0, "puts": 0, "deletes": 0}
        #: key -> slot of every live entry, derived from the arena; a hit
        #: is one dict lookup.
        self._index: dict[bytes, int] = {}

    def _hash(self, key: bytes) -> int:
        return zlib.crc32(key) % self.n_slots

    def _slot(self, index: int) -> tuple[int, bytes, bytes]:
        base = index * SLOT_BYTES
        state, key_len, value_len = _SLOT_HEADER.unpack_from(self.arena, base)
        key_off = base + _SLOT_HEADER.size
        key = bytes(self.arena[key_off : key_off + key_len])
        value_off = key_off + MAX_KEY_BYTES
        value = bytes(self.arena[value_off : value_off + value_len])
        return state, key, value

    def _write_slot(self, index: int, state: int, key: bytes, value: bytes) -> None:
        base = index * SLOT_BYTES
        _SLOT_HEADER.pack_into(self.arena, base, state, len(key), len(value))
        key_off = base + _SLOT_HEADER.size
        self.arena[key_off : key_off + MAX_KEY_BYTES] = key.ljust(MAX_KEY_BYTES, b"\0")
        value_off = key_off + MAX_KEY_BYTES
        self.arena[value_off : value_off + MAX_VALUE_BYTES] = value.ljust(
            MAX_VALUE_BYTES, b"\0"
        )

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
        arena, n = self.arena, self.n_slots
        index = self._hash(key)
        first_tombstone = None
        for probes in range(1, n + 1):
            state = arena[index * SLOT_BYTES]
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
        return self._slot(slot)[2]

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

    def _full_slots(self) -> list[int]:
        """Every full slot, in slot order, from the state bytes alone:
        only these slots need decoding."""
        states = self.arena[::SLOT_BYTES]  # byte 0 of every slot
        return [index for index, state in enumerate(states) if state == _FULL]

    def scan(self):
        """Yield every stored ``(key, value)`` pair in slot order.

        The control-plane full-table walk: re-replication, rejoin
        handoff and anti-entropy iterate a shard's contents without
        knowing its keys.  It reads every slot's state byte and decodes
        the full slots only.
        """
        for index in self._full_slots():
            yield self._slot(index)[1:]

    def clear(self) -> None:
        """Wipe the arena (a rejoining board comes back empty)."""
        self.arena = bytearray(self.n_slots * SLOT_BYTES)
        self.items = 0
        self._index = {}

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # The arena is captured byte-exact (slot layout depends on the full
    # put/delete history through probing and tombstones, so replaying
    # operations would not reproduce it).

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        return {
            "n_slots": self.n_slots,
            "arena": bytes(self.arena),
            "items": self.items,
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        if state["n_slots"] != self.n_slots:
            raise KvError(
                f"snapshot has {state['n_slots']} slots, store has {self.n_slots}"
            )
        self.arena = bytearray(state["arena"])
        self.items = state["items"]
        self.stats.update(state["stats"])
        self._index = {self._slot(index)[1]: index for index in self._full_slots()}


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
