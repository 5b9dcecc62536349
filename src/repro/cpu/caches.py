"""Functional set-associative cache models.

Used both standalone (hit/miss statistics for workload analysis) and as
the geometry description of the ThunderX-1's L1/L2.  The model is
address-only (no data): coherent data movement is the job of
:mod:`repro.eci.protocol`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..params import CacheGeometry


class SetAssociativeCache:
    """LRU set-associative cache with hit/miss/eviction accounting."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.geometry.line_bytes
        return line % self.geometry.sets, line

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit, installs on miss."""
        set_index, tag = self._locate(addr)
        ways = self._sets.setdefault(set_index, OrderedDict())
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.geometry.ways:
            ways.popitem(last=False)
            self.evictions += 1
        ways[tag] = True
        return False

    def contains(self, addr: int) -> bool:
        set_index, tag = self._locate(addr)
        return tag in self._sets.get(set_index, {})

    def flush(self) -> None:
        self._sets.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0
