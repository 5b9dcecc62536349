"""The ``Snapshottable`` protocol: versioned, composable state capture.

Checkpoint/restore rests on one contract, implemented by every stateful
component of the platform (the sim kernel, links and transports, the
switch, shard stores and servers, health machines, the metrics
registry):

* ``SNAP_VERSION`` -- an integer class attribute, bumped whenever the
  shape of the component's snapshot changes;
* ``snapshot_state() -> dict`` -- the component's *explicit* state as
  plain data (scalars, strings, ``bytes``, lists, and string-keyed
  dicts only), complete enough that an identically-constructed peer
  restored from it continues bit-identically;
* ``restore_state(state: dict) -> None`` -- re-materialize that state
  onto a freshly constructed component.  Restores must be *silent*:
  they assign state but never emit observability updates or schedule
  kernel events (the checkpoint already carries the registry and the
  queue is empty at a quiescent point).

State-ownership rules
---------------------
What a component may put in its snapshot is exactly the state it
*owns*: its counters, buffers, and protocol variables -- never its
wiring (kernel, links, obs handles), which the restore side rebuilds
from configuration before calling :meth:`restore_state`.  Coroutine
frames are deliberately not captured; checkpoints are taken at
*quiescent points* (drained event queue), where every process has
parked its progress in explicit component state.

:func:`tagged` wraps a snapshot with the component's type name and
``SNAP_VERSION``; :func:`restore` validates both before handing the
state back.  A component that changes shape bumps ``SNAP_VERSION``,
and checkpoints taken at another version no longer restore.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict

#: Version of the checkpoint *container* format, including the encoded
#: FleetConfig it carries (component payloads carry their own per-class
#: versions).
SNAP_SCHEMA = 4


class SnapshotError(RuntimeError):
    """A snapshot cannot be taken or restored (non-quiescent system,
    version/type mismatch, malformed state)."""


def is_snapshottable(obj: Any) -> bool:
    """Duck-typed protocol check."""
    return (
        hasattr(obj, "snapshot_state")
        and hasattr(obj, "restore_state")
        and hasattr(type(obj), "SNAP_VERSION")
    )


def tagged(obj: Any) -> Dict[str, Any]:
    """Wrap ``obj.snapshot_state()`` with its type and version tag."""
    if not is_snapshottable(obj):
        raise SnapshotError(
            f"{type(obj).__name__} does not implement the Snapshottable "
            "protocol (SNAP_VERSION + snapshot_state/restore_state)"
        )
    return {
        "type": type(obj).__name__,
        "version": type(obj).SNAP_VERSION,
        "state": obj.snapshot_state(),
    }


def restore(obj: Any, tag: Dict[str, Any]) -> None:
    """Validate a tagged snapshot against ``obj`` and restore it.

    The tag's type name and version must match ``obj``'s class exactly.
    """
    if not is_snapshottable(obj):
        raise SnapshotError(f"{type(obj).__name__} is not Snapshottable")
    name = type(obj).__name__
    if tag.get("type") != name:
        raise SnapshotError(
            f"snapshot type mismatch: checkpoint carries {tag.get('type')!r}, "
            f"restoring onto {name!r}"
        )
    version = tag.get("version")
    current = type(obj).SNAP_VERSION
    state = tag.get("state")
    if not isinstance(state, dict):
        raise SnapshotError(f"{name}: snapshot state must be a dict, got {type(state).__name__}")
    if version != current:
        raise SnapshotError(
            f"{name}: cannot restore snapshot version {version!r} "
            f"with code at version {current}"
        )
    obj.restore_state(state)


# -- JSON encoding ---------------------------------------------------------
#
# Snapshots are plain data plus ``bytes`` leaves (store arenas, payload
# bodies).  For on-disk checkpoints the structure is made JSON-safe by
# tagging bytes as {"__b64__": ...}; everything else passes through
# unchanged.  In-memory checkpoints (the fork-a-sweep hot path) never
# pay this cost.

_B64_KEY = "__b64__"


def to_jsonable(value: Any) -> Any:
    """Recursively encode ``bytes`` leaves for JSON serialization."""
    if isinstance(value, (bytes, bytearray)):
        return {_B64_KEY: base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable` (bytes come back as ``bytes``)."""
    if isinstance(value, dict):
        if set(value) == {_B64_KEY}:
            return base64.b64decode(value[_B64_KEY])
        return {key: from_jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [from_jsonable(item) for item in value]
    return value


def dumps(value: Any) -> str:
    """Canonical JSON text of a snapshot structure (sorted keys)."""
    return json.dumps(to_jsonable(value), sort_keys=True)


def loads(text: str) -> Any:
    """Inverse of :func:`dumps`."""
    return from_jsonable(json.loads(text))
