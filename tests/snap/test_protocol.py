"""The Snapshottable protocol itself: tagging, validation, and the
JSON-safe encoding of bytes-bearing snapshots."""

import pytest

from repro.snap.protocol import (
    SnapshotError,
    dumps,
    from_jsonable,
    is_snapshottable,
    loads,
    restore,
    tagged,
    to_jsonable,
)


class Widget:
    SNAP_VERSION = 2

    def __init__(self):
        self.count = 0
        self.blob = b""

    def snapshot_state(self):
        return {"count": self.count, "blob": self.blob}

    def restore_state(self, state):
        self.count = state["count"]
        self.blob = state["blob"]


class NotSnapshottable:
    pass


def test_is_snapshottable_duck_check():
    assert is_snapshottable(Widget())
    assert not is_snapshottable(NotSnapshottable())


def test_tagged_round_trip():
    a = Widget()
    a.count, a.blob = 7, b"\x00\xff"
    tag = tagged(a)
    assert tag["type"] == "Widget" and tag["version"] == 2

    b = Widget()
    restore(b, tag)
    assert b.count == 7 and b.blob == b"\x00\xff"


def test_tagged_rejects_non_snapshottable():
    with pytest.raises(SnapshotError, match="Snapshottable"):
        tagged(NotSnapshottable())


def test_restore_rejects_type_mismatch():
    tag = tagged(Widget())
    tag["type"] = "SomethingElse"
    with pytest.raises(SnapshotError, match="type mismatch"):
        restore(Widget(), tag)


def test_restore_rejects_newer_version():
    tag = tagged(Widget())
    tag["version"] = 3
    with pytest.raises(SnapshotError, match="version"):
        restore(Widget(), tag)


def test_restore_rejects_older_version_without_migrate():
    tag = {"type": "Widget", "version": 1, "state": {"n": 5}}
    with pytest.raises(
        SnapshotError, match="cannot restore snapshot version 1 with code at version 2"
    ):
        restore(Widget(), tag)


def test_restore_rejects_non_dict_state():
    with pytest.raises(SnapshotError, match="dict"):
        restore(Widget(), {"type": "Widget", "version": 2, "state": [1, 2]})


def test_jsonable_round_trips_bytes():
    doc = {"arena": b"\x00\x01\xfe", "nested": [{"k": b""}], "n": 3}
    encoded = to_jsonable(doc)
    assert encoded["arena"] == {"__b64__": "AAH+"}
    assert from_jsonable(encoded) == doc


def test_dumps_loads_canonical():
    doc = {"b": b"\x01", "a": 1.5, "l": [1, 2, {"x": b"yz"}]}
    text = dumps(doc)
    assert loads(text) == doc
    # Canonical: same content always serializes to the same bytes.
    assert dumps(loads(text)) == text
