"""Attribute a traced run's self-time and calls to the serving path's layers.

A layer is a set of source files under ``src/repro``; ``fleet/kvs.py``
is split further by enclosing class (client vs. shard server).  Time
spent in builtins, the standard library and generated code (dataclass
``__init__``) has no layer of its own: it is charged to whoever called
it, in proportion to the time each caller spent in it (pstats
``callers``), recursively.

Files are listed one by one, not by package, on purpose: a module the map
does not name lands in ``other``, and the ledger fails a run whose
``other`` share passes :data:`OTHER_LIMIT`, so new code cannot hide its
cost.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim",
    "traffic.source",
    "traffic.gateway",
    "fleet.client",
    "fleet.server",
    "fleet.placement",
    "fleet.rack",
    "fleet.antientropy",
    "fleet.audit",
    "net.ethernet",
    "net.switch",
    "apps.kvs",
    "obs",
    "health",
    "faults",
)

#: Largest share of traced self-time allowed outside every layer.
OTHER_LIMIT = 0.02

_KVS_CLASSES = {
    "KvsShardServer": "fleet.server",
    "FleetKvsClient": "fleet.client",
    "_QuorumWait": "fleet.client",
    "KvsRequest": "fleet.client",
    "KvsResponse": "fleet.client",
    "FleetKvsError": "fleet.client",
    "KvsRequestAborted": "fleet.server",
}

#: Source file (relative to ``src/repro``) -> layer, or -> {class: layer}.
FILE_LAYERS: Dict[str, object] = {
    "sim/kernel.py": "sim",
    "sim/resources.py": "sim",
    "traffic/arrivals.py": "traffic.source",
    "traffic/classes.py": "traffic.source",
    "traffic/config.py": "traffic.source",
    "traffic/engine.py": "traffic.source",
    "traffic/gateway.py": "traffic.gateway",
    "fleet/kvs.py": _KVS_CLASSES,
    "fleet/errors.py": "fleet.client",
    "fleet/placement.py": "fleet.placement",
    "fleet/rack.py": "fleet.rack",
    "fleet/antientropy.py": "fleet.antientropy",
    "fleet/audit.py": "fleet.audit",
    "net/ethernet.py": "net.ethernet",
    "net/switch.py": "net.switch",
    "apps/kvs.py": "apps.kvs",
    "obs/metrics.py": "obs",
    "obs/tracer.py": "obs",
    "health/breaker.py": "health",
    "health/state.py": "health",
    "faults/inject.py": "faults",
    "faults/plan.py": "faults",
}

Func = Tuple[str, int, str]


class LayerMap:
    """Resolves a pstats function key to its layer (None = no layer of
    its own: charge the caller)."""

    def __init__(self, src_root: Path):
        self.src_root = Path(src_root).resolve()
        self._class_ranges: Dict[str, list] = {}

    def _rel(self, filename: str) -> Optional[str]:
        if filename.startswith(("~", "<")):
            return None
        try:
            return Path(filename).resolve().relative_to(self.src_root).as_posix()
        except ValueError:
            return None

    def enclosing_class(self, rel: str, lineno: int) -> Optional[str]:
        ranges = self._class_ranges.get(rel)
        if ranges is None:
            tree = ast.parse((self.src_root / rel).read_text())
            ranges = self._class_ranges[rel] = [
                (node.lineno, node.end_lineno, node.name)
                for node in tree.body
                if isinstance(node, ast.ClassDef)
            ]
        for first, last, name in ranges:
            if first <= lineno <= last:
                return name
        return None

    def layer_of(self, func: Func) -> Optional[str]:
        rel = self._rel(func[0])
        if rel is None:
            return None
        layer = FILE_LAYERS.get(rel)
        if isinstance(layer, dict):
            return layer.get(self.enclosing_class(rel, func[1]), "other")
        return layer if layer is not None else "other"

    def in_class(self, func: Func, rel: str, cls: str) -> bool:
        return self._rel(func[0]) == rel and self.enclosing_class(rel, func[1]) == cls


def _shares(stats: dict, layers: LayerMap) -> Dict[Func, Dict[str, float]]:
    """Each function's self-time split over layers."""
    memo: Dict[Func, Dict[str, float]] = {}

    def resolve(func: Func, active: frozenset) -> Dict[str, float]:
        layer = layers.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {c: v[2] for c, v in callers.items() if c not in active}
        if not any(weights.values()):
            weights = {c: v[1] for c, v in callers.items() if c not in active}
        total = sum(weights.values())
        if not total:
            return {"other": 1.0}
        mix: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in resolve(caller, active | {func}).items():
                mix[layer] = mix.get(layer, 0.0) + share * weight / total
        if not active:
            memo[func] = mix
        return mix

    return {func: resolve(func, frozenset()) for func in stats}


def attribute(stats, src_root: Path, requests: int) -> Dict[str, float]:
    """Per-layer ``self_share`` and ``calls_per_req`` from a
    ``pstats.Stats``, plus the exact call counts the ledger names."""
    raw = stats.stats
    layers = LayerMap(src_root)
    self_time = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = {layer: 0 for layer in LAYERS}
    for func, mix in _shares(raw, layers).items():
        tottime = raw[func][2]
        for layer, share in mix.items():
            self_time[layer] += tottime * share
        own = layers.layer_of(func)
        if own in calls:
            calls[own] += raw[func][1]
    total = sum(self_time.values()) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / total
        out[f"{layer}.calls_per_req"] = calls[layer] / requests if requests else 0.0
    out["other.self_share"] = self_time["other"] / total

    def ncalls(rel: str, cls: str, names) -> int:
        return sum(
            value[1]
            for func, value in raw.items()
            if func[2] in names and layers.in_class(func, rel, cls)
        )

    per_req = requests or 1
    out["sim.spawns_per_req"] = ncalls("sim/kernel.py", "Kernel", {"spawn"}) / per_req
    out["obs.lookups_per_req"] = (
        ncalls("obs/metrics.py", "MetricsRegistry", {"counter", "gauge", "histogram"})
        / per_req
    )
    out["obs.updates_per_req"] = ncalls("obs/metrics.py", "Instrument", {"_emit"}) / per_req
    return out
