"""Rack-scale fleet simulation: N Enzians, a sharded KVS, failover.

The fleet layer composes the pieces the rest of the twin already
provides -- machines from :mod:`repro.config` presets, the multi-port
switch from :mod:`repro.net`, health state machines from
:mod:`repro.health`, metrics from :mod:`repro.obs` -- into a rack: N
boards behind one switch serving a consistent-hash-sharded key-value
store with configurable replication, timeout-driven failover, and
rack-level latency rollups.
"""

from .antientropy import (
    AntiEntropyError,
    AntiEntropyScheduler,
    MerkleTree,
    replica_divergence,
)
from .audit import (
    AuditError,
    HistoryOp,
    HistoryRecorder,
    assert_linearizable,
    check_history,
)
from .config import AntiEntropyConfig, FleetConfig
from .errors import FleetError
from .kvs import (
    FleetKvsClient,
    FleetKvsError,
    KvsRequest,
    KvsRequestAborted,
    KvsResponse,
    KvsShardServer,
)
from .placement import HashRing, PlacementError, key_hash, moved_keys
from .rack import Rack, RackError, RackMachine
from .rollup import FleetRollup, MergedSeries, merge_histograms

__all__ = [
    "AntiEntropyConfig",
    "AntiEntropyError",
    "AntiEntropyScheduler",
    "AuditError",
    "FleetConfig",
    "MerkleTree",
    "FleetError",
    "FleetKvsClient",
    "FleetKvsError",
    "FleetRollup",
    "HashRing",
    "HistoryOp",
    "HistoryRecorder",
    "KvsRequest",
    "KvsRequestAborted",
    "KvsResponse",
    "KvsShardServer",
    "MergedSeries",
    "PlacementError",
    "Rack",
    "RackError",
    "RackMachine",
    "assert_linearizable",
    "check_history",
    "key_hash",
    "merge_histograms",
    "moved_keys",
    "replica_divergence",
]
