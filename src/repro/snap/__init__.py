"""repro.snap: checkpoint/restore for the platform.

Two capabilities on one protocol (:mod:`repro.snap.protocol`):

* **Checkpoint/restore** -- capture a rack's whole deterministic state
  at a quiescent point (:func:`checkpoint_rack`), then re-materialize
  it (:func:`restore_rack`) so the run continues bit-identically.
* **Fork** -- :func:`fork_rack` restores and reseeds: branch a sweep
  from a warm checkpoint instead of replaying the common prefix.

See DESIGN.md §13 for the state-ownership rules and restore ordering.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "checkpoint": ("Checkpoint", "checkpoint_rack", "fork_rack", "restore_rack"),
    "protocol": (
        "SNAP_SCHEMA", "SnapshotError", "dumps", "from_jsonable", "is_snapshottable", "loads",
        "restore", "tagged", "to_jsonable",
    ),
    "soak": ("FleetSoak",),
})
