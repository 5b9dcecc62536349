"""repro.snap: checkpoint/restore and record-replay for the platform.

Three capabilities on one protocol (:mod:`repro.snap.protocol`):

* **Checkpoint/restore** -- capture a rack's whole deterministic state
  at a quiescent point (:func:`checkpoint_rack`), then re-materialize
  it (:func:`restore_rack`) so the run continues bit-identically.
* **Fork** -- :func:`fork_rack` restores and reseeds: branch a sweep
  from a warm checkpoint instead of replaying the common prefix.
* **Record-replay** -- :class:`MessageTap` records a board's boundary
  traffic; :func:`replay_board` re-executes that one board in
  isolation, bit-identically, from the trace alone.

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
from .tap import (
    MessageTap,
    attach_taps,
    replay_board,
    trace_from_jsonl,
    trace_to_jsonl,
)

__all__ = [
    "Checkpoint",
    "FleetSoak",
    "MessageTap",
    "SNAP_SCHEMA",
    "SnapshotError",
    "attach_taps",
    "checkpoint_rack",
    "dumps",
    "fork_rack",
    "from_jsonable",
    "is_snapshottable",
    "loads",
    "replay_board",
    "restore",
    "restore_rack",
    "tagged",
    "to_jsonable",
    "trace_from_jsonl",
    "trace_to_jsonl",
]
