"""KVS wire messages: slotted records with a precomputed ``wire_bytes``."""

import pytest

from repro.fleet import KvsRequest, KvsResponse
from repro.fleet.kvs import NO_VERSION, REQUEST_HEADER_BYTES

pytestmark = pytest.mark.fleet


def test_defaults_keywords_and_wire_bytes():
    request = KvsRequest("put", b"abc", b"defg", 5, "c#kvs")
    assert (request.epoch, request.version, request.replicas) == (0, NO_VERSION, ())
    assert (request.hint_for, request.tombstone) == ("", False)
    assert request.wire_bytes == REQUEST_HEADER_BYTES + 3 + 4
    assert request == KvsRequest(
        op="put", key=b"abc", value=b"defg", txid=5, reply_to="c#kvs"
    )
    response = KvsResponse(5, True, None, "m")
    assert (response.epoch, response.version, response.error) == (0, NO_VERSION, "")
    assert response.wire_bytes == REQUEST_HEADER_BYTES
    assert KvsResponse(5, True, b"xy", "m").wire_bytes == REQUEST_HEADER_BYTES + 2


def test_fieldwise_equality_and_repr():
    a = KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=2)
    assert a == KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=2)
    assert a != KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=3)
    assert hash(a) == hash(KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=2))
    assert repr(a) == (
        "KvsRequest(op='put', key=b'k', value=b'v', txid=1, reply_to='c#kvs', "
        "epoch=2, version=(0, 0), replicas=(), hint_for='', tombstone=False)"
    )
    assert repr(KvsResponse(4, False, None, "m", error="unknown_op")) == (
        "KvsResponse(txid=4, ok=False, value=None, machine='m', epoch=0, "
        "version=(0, 0), error='unknown_op')"
    )
    assert not hasattr(a, "__dict__")
