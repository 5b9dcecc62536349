"""repro.snap: checkpoint/restore for the platform.

Two capabilities on one protocol (:mod:`repro.snap.protocol`):

* **Checkpoint/restore** -- capture a rack's whole deterministic state
  at a quiescent point (:func:`checkpoint_rack`), then re-materialize
  it (:func:`restore_rack`) so the run continues bit-identically.
* **Fork** -- :func:`fork_rack` restores and reseeds: branch a sweep
  from a warm checkpoint instead of replaying the common prefix.

See DESIGN.md §13 for the state-ownership rules and restore ordering.
"""

from .checkpoint import Checkpoint, checkpoint_rack, fork_rack, restore_rack
from .protocol import (
    SNAP_SCHEMA,
    SnapshotError,
    dumps,
    from_jsonable,
    is_snapshottable,
    loads,
    restore,
    tagged,
    to_jsonable,
)
from .soak import FleetSoak

__all__ = [
    "Checkpoint",
    "FleetSoak",
    "SNAP_SCHEMA",
    "SnapshotError",
    "checkpoint_rack",
    "dumps",
    "fork_rack",
    "from_jsonable",
    "is_snapshottable",
    "loads",
    "restore",
    "restore_rack",
    "tagged",
    "to_jsonable",
]
