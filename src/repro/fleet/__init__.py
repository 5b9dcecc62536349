"""Rack-scale fleet simulation: N Enzians, a sharded KVS, failover.

The fleet layer composes the pieces the rest of the twin already
provides -- machines from :mod:`repro.config` presets, the multi-port
switch from :mod:`repro.net`, health state machines from
:mod:`repro.health`, metrics from :mod:`repro.obs` -- into a rack: N
boards behind one switch serving a consistent-hash-sharded key-value
store with configurable replication, timeout-driven failover, and
rack-level latency rollups.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "antientropy": ("AntiEntropyError", "AntiEntropyScheduler", "MerkleTree", "replica_divergence"),
    "audit": ("AuditError", "HistoryOp", "HistoryRecorder", "assert_linearizable", "check_history"),
    "config": ("AntiEntropyConfig", "FleetConfig"),
    "errors": ("FleetError",),
    "kvs": (
        "FleetKvsClient", "FleetKvsError", "KvsRequest", "KvsRequestAborted", "KvsResponse",
        "KvsShardServer",
    ),
    "oracles": (
        "OracleError", "Violation", "conservation", "convergence", "durability", "linearizability",
        "no_errors", "read_acked", "require",
    ),
    "placement": ("HashRing", "PlacementError", "key_hash", "moved_keys"),
    "rack": ("Rack", "RackError", "RackMachine"),
    "rollup": ("FleetRollup", "MergedSeries", "merge_histograms"),
})
